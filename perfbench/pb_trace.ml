(* Span tracer for the benchmark workloads: host self-time, simulated time
   and minor-heap allocation per layer operation, measured from outside
   the library.

   A span is opened and closed by the workload around a call into a layer
   (or inside a callback the layer calls back into). Time between any two
   consecutive checkpoints is charged to exactly one place: the innermost
   open span of the simulation process that was running, or [sim.run]
   when the engine itself (or workload glue outside every span) was
   running. The sum of all host self-times is therefore the traced run's
   wall time.

   Process switches are observed with an effect handler that the workload
   wraps around every process body ({!proc}): it forwards each engine
   effect unchanged, checkpointing just before the process parks and just
   after it resumes. Time other processes run while this one is parked is
   thus never charged to its spans; simulated time, which is per process,
   is charged to the parked span (it is that span's waiting time).

   Everything is a no-op while tracing is off: {!proc} returns the body
   unchanged and {!enter}/{!exit_as} test one flag. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let names =
  [|
    "sim.run";
    "sim.cpu";
    "sim.cpu.service";
    "epcm.touch.warm";
    "epcm.touch.fault";
    "epcm.migrate";
    "mgr.source";
    "mgr.fill";
    "mgr.swap_out";
    "mgr.dsm.read";
    "mgr.dsm.write";
    "spcm.acquire";
    "spcm.return";
    "spcm.sweep";
    "dbms.lock.acquire";
    "dbms.lock.acquire_timeout";
    "dbms.lock.release";
    "dbms.wal.append";
    "dbms.wal.commit";
    "dbms.coord.run";
    "dbms.coord.prepare";
  |]

let sim_run = 0
let sim_cpu = 1
let sim_cpu_service = 2
let touch_warm = 3
let touch_fault = 4
let migrate = 5
let mgr_source = 6
let mgr_fill = 7
let mgr_swap_out = 8
let dsm_read = 9
let dsm_write = 10
let spcm_acquire = 11
let spcm_return = 12
let spcm_sweep = 13
let lock_acquire = 14
let lock_acquire_timeout = 15
let lock_release = 16
let wal_append = 17
let wal_commit = 18
let coord_run = 19
let coord_prepare = 20

let n_spans = Array.length names
let on = ref false

(* Per-span totals. Float arrays keep the accumulators unboxed, so the
   tracer itself allocates nothing per checkpoint. *)
let count = Array.make n_spans 0
let self_ns = Array.make n_spans 0
let self_words = Array.make n_spans 0.0
let sim_incl = Array.make n_spans 0.0

(* One stack of open spans per simulation process. [acc_*] collect the
   innermost frame's host self-time until it closes. [sim_in_spans] is
   the simulated time this process has spent inside any span. *)
type ctx = {
  mutable depth : int;
  mutable sim0 : float array;
  mutable acc_ns : int array;
  mutable acc_w : float array;
  last_sim : float array;  (* [| simulated time of the last checkpoint |] *)
  sim_in_spans : float array;
}

let new_ctx () =
  {
    depth = 0;
    sim0 = Array.make 8 0.0;
    acc_ns = Array.make 8 0;
    acc_w = Array.make 8 0.0;
    last_sim = [| 0.0 |];
    sim_in_spans = [| 0.0 |];
  }

let engine_ctx = new_ctx ()
let running = ref engine_ctx
let sim_clock = ref (fun () -> 0.0)
let last_ns = ref 0
let last_w = [| 0.0 |]

let reset () =
  Array.fill count 0 n_spans 0;
  Array.fill self_ns 0 n_spans 0;
  Array.fill self_words 0 n_spans 0.0;
  Array.fill sim_incl 0 n_spans 0.0;
  engine_ctx.depth <- 0;
  running := engine_ctx

let charge_host c =
  let t = Int64.to_int (clock_ns ()) in
  let w = Gc.minor_words () in
  let dns = t - !last_ns in
  let dw = w -. last_w.(0) in
  last_ns := t;
  last_w.(0) <- w;
  if c.depth = 0 then begin
    self_ns.(sim_run) <- self_ns.(sim_run) + dns;
    self_words.(sim_run) <- self_words.(sim_run) +. dw
  end
  else begin
    let d = c.depth - 1 in
    c.acc_ns.(d) <- c.acc_ns.(d) + dns;
    c.acc_w.(d) <- c.acc_w.(d) +. dw
  end

let charge_sim c now =
  if c.depth > 0 then c.sim_in_spans.(0) <- c.sim_in_spans.(0) +. (now -. c.last_sim.(0));
  c.last_sim.(0) <- now

let grow c =
  let n = 2 * Array.length c.sim0 in
  let ext a z = Array.init n (fun i -> if i < Array.length a then a.(i) else z) in
  c.sim0 <- ext c.sim0 0.0;
  c.acc_ns <- ext c.acc_ns 0;
  c.acc_w <- ext c.acc_w 0.0

let enter_slow () =
  let c = !running in
  let now = !sim_clock () in
  charge_host c;
  charge_sim c now;
  if c.depth = Array.length c.sim0 then grow c;
  let d = c.depth in
  c.sim0.(d) <- now;
  c.acc_ns.(d) <- 0;
  c.acc_w.(d) <- 0.0;
  c.depth <- d + 1

let exit_slow id =
  let c = !running in
  let now = !sim_clock () in
  charge_host c;
  charge_sim c now;
  let d = c.depth - 1 in
  if d < 0 then failwith "Pb_trace.exit_as: no open span";
  count.(id) <- count.(id) + 1;
  self_ns.(id) <- self_ns.(id) + c.acc_ns.(d);
  self_words.(id) <- self_words.(id) +. c.acc_w.(d);
  sim_incl.(id) <- sim_incl.(id) +. (now -. c.sim0.(d));
  c.depth <- d

let[@inline] enter () = if !on then enter_slow ()

(* Spans are named when they close, so a touch can be classified warm or
   fault once it returns. *)
let[@inline] exit_as id = if !on then exit_slow id

let span id f =
  if not !on then f ()
  else begin
    enter_slow ();
    match f () with
    | v ->
        exit_slow id;
        v
    | exception e ->
        exit_slow id;
        raise e
  end

(* Parking and resuming: forward every effect to the engine's handler,
   checkpointing around it. *)
let switch_out c =
  charge_host c;
  charge_sim c (!sim_clock ());
  running := engine_ctx

let switch_in c =
  charge_host engine_ctx;
  running := c;
  charge_sim c (!sim_clock ())

let proc body =
  if not !on then body
  else fun () ->
    let c = new_ctx () in
    c.last_sim.(0) <- !sim_clock ();
    switch_in c;
    let open Effect.Deep in
    match_with body ()
      {
        retc = (fun () -> switch_out c);
        exnc =
          (fun e ->
            switch_out c;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            Some
              (fun (k : (a, unit) continuation) ->
                switch_out c;
                let v = Effect.perform eff in
                switch_in c;
                continue k v));
      }

(** Simulated µs the running process has spent inside spans so far. *)
let sim_in_spans () = (!running).sim_in_spans.(0)

(** Bracket [Engine.run]: the engine's own work and all workload glue
    outside a span become [sim.run]'s self-time. Returns host seconds. *)
let host_now () = Int64.to_int (clock_ns ())

(* Host timestamps at fixed points of the simulated work (every
   [lap_touches]-th kernel touch, see Pb_common.touch): at one seed, the
   work between two laps is the same in every rep. *)
let lap_touches = 2047
let laps = ref (Array.make 256 0)
let n_laps = ref 0

let lap () =
  if !n_laps = Array.length !laps then
    laps := Array.append !laps (Array.make !n_laps 0);
  !laps.(!n_laps) <- host_now ();
  incr n_laps

(** Seconds between consecutive laps, from the start to the end of the
    last [run_engine]. *)
let lap_seconds () =
  List.init (max 0 (!n_laps - 1)) (fun i ->
      float_of_int (!laps.(i + 1) - !laps.(i)) /. 1e9)

let run_engine ~sim_now f =
  sim_clock := sim_now;
  n_laps := 0;
  lap ();
  let t0 = host_now () in
  if !on then begin
    last_ns := t0;
    last_w.(0) <- Gc.minor_words ();
    enter_slow ()
  end;
  f ();
  if !on then exit_slow sim_run;
  let t1 = host_now () in
  lap ();
  float_of_int (t1 - t0) /. 1e9
