(* Shared pieces of the benchmark workloads: run scale, latency
   samples, the traced kernel touch, output checks and the per-rep
   record. *)

module K = Epcm_kernel
module T = Pb_trace

type scale = Full | Quick

(* Growable vector of float samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile over the exact samples; [p] in percent. *)
  let percentiles t ps =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    List.map
      (fun p ->
        if t.n = 0 then 0.0
        else
          let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
          a.(max 0 (min (t.n - 1) (rank - 1))))
      ps
end

let faults_of k =
  let s = K.stats k in
  s.K.faults_missing + s.K.faults_protection + s.K.faults_cow

(* One memory reference. The simulated latency of every faulting touch
   is sampled; when tracing, the span is classified warm or fault once
   the touch returns. Every [T.lap_touches]-th touch marks a lap. *)
let touch k ~(samples : Samples.t) ~space ~page ~access =
  let machine = K.machine k in
  let f0 = faults_of k in
  let t0 = Hw_machine.now machine in
  T.enter ();
  (match K.touch k ~space ~page ~access with
  | () -> ()
  | exception e ->
      T.exit_as (if faults_of k > f0 then T.touch_fault else T.touch_warm);
      raise e);
  if (K.stats k).K.touches mod T.lap_touches = 0 then T.lap ();
  if faults_of k > f0 then begin
    T.exit_as T.touch_fault;
    Samples.add samples (Hw_machine.now machine -. t0)
  end
  else T.exit_as T.touch_warm

let migrate_pages k ~src ~dst ~src_page ~dst_page ~count =
  T.enter ();
  (match K.migrate_pages k ~src ~dst ~src_page ~dst_page ~count () with
  | () -> ()
  | exception e ->
      T.exit_as T.migrate;
      raise e);
  T.exit_as T.migrate

(* Output checks: each is (what, pass, detail). *)
type check = { what : string; pass : bool; detail : string }

let check what pass detail = { what; pass; detail }

let conservation_checks ?(tiered = false) k =
  let machine = K.machine k in
  let frames = Hw_machine.n_frames machine in
  let total = K.frame_owner_total k in
  [
    check "frame conservation (owned = machine frames)" (total = frames)
      (Printf.sprintf "%d of %d" total frames);
    check "incremental frame audit = scan" (K.frame_owner_audit k = K.frame_owner_audit_scan k) "";
    check "zero live processes at the end"
      (Sim_engine.live_processes machine.Hw_machine.engine = 0)
      (string_of_int (Sim_engine.live_processes machine.Hw_machine.engine));
  ]
  @
  if tiered then
    [
      check "incremental per-tier audit = scan"
        (K.frame_owner_audit_tiered k = K.frame_owner_audit_tiered_scan k)
        "";
    ]
  else []

(* A simulated-time latency metric, with its sample count. *)
type lat = { l_name : string; l_value : float; l_unit : string; l_n : int }

(* What a workload reports after one run. [sim] holds every deterministic
   simulated output — it must be identical across reps at one seed and
   between the traced and untraced run. *)
type outcome = {
  attempted : int;
  failed : int;  (** Aborts, refusals, Out_of_frames and fill failures. *)
  lats : lat list;
  sim : (string * float) list;
  counters : (string * float) list;
  checks : check list;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Layer counters every machine has. *)
let hw_counters (m : Hw_machine.t) =
  [
    ("sim.events", fi (Sim_engine.events_executed m.Hw_machine.engine));
    ("hw.tlb.hit_rate", Hw_tlb.hit_rate m.Hw_machine.tlb);
    ("hw.pt.collisions", fi (Hw_page_table.collisions m.Hw_machine.page_table));
    ("hw.disk.writes", fi (Hw_disk.writes m.Hw_machine.disk));
    ("hw.disk.busy_frac", Hw_disk.busy_fraction m.Hw_machine.disk);
  ]

let epcm_counters k =
  let s = K.stats k in
  [
    ("epcm.faults", fi (faults_of k));
    ("epcm.migrated_pages", fi s.K.migrated_pages);
  ]

let generic_counters gs =
  let sum f = List.fold_left (fun acc g -> acc + f (Mgr_generic.stats g)) 0 gs in
  let refills = sum (fun s -> s.Mgr_generic.refill_requests) in
  [
    ("mgr.refills", fi refills);
    ("mgr.frames_per_refill", ratio (fi (sum (fun s -> s.Mgr_generic.frames_from_source))) (fi refills));
    ("mgr.reclaimed", fi (sum (fun s -> s.Mgr_generic.reclaimed)));
    ("mgr.writebacks", fi (sum (fun s -> s.Mgr_generic.writebacks)));
  ]

(* Traced generic-manager plumbing: a frame source and fill hook wrapped
   in [mgr.source] / [mgr.fill] spans. *)
let traced_source (source : Mgr_generic.source) : Mgr_generic.source =
 fun ~dst ~dst_page ~count -> T.span T.mgr_source (fun () -> source ~dst ~dst_page ~count)

let traced_hooks ~backing =
  let h = Mgr_generic.default_hooks ~backing in
  {
    h with
    Mgr_generic.fill =
      (fun ~seg ~page ~kind ~high_water ->
        T.span T.mgr_fill (fun () -> h.Mgr_generic.fill ~seg ~page ~kind ~high_water));
  }

(* The experiment-harness SPCM stand-in of Wl_scale: grant frames from
   the initial segment, scanning it monotonically, capped at [budget]. *)
let capped_source k ~budget =
  let init = K.initial_segment k in
  let next = ref 0 in
  let granted_total = ref 0 in
  fun ~dst ~dst_page ~count ->
    let init_seg = K.segment k init in
    let count = min count (max 0 (budget - !granted_total)) in
    let granted = ref 0 in
    while !granted < count && !next < Epcm_segment.length init_seg do
      (if (Epcm_segment.page init_seg !next).Epcm_segment.frame <> None then begin
         migrate_pages k ~src:init ~dst ~src_page:!next ~dst_page:(dst_page + !granted) ~count:1;
         incr granted
       end);
      incr next
    done;
    granted_total := !granted_total + !granted;
    !granted
