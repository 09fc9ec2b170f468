(* market: Wl_market.production rebuilt from the layers' public functions
   — an open loop of 5,000 tenants (exponential arrivals) acquiring
   through the SPCM admission queue, six batch savers cycling a
   Mgr_generic working set through swap-out, and the periodic sweeper, on
   a 20 MB machine with the dram market on. At every seed it reproduces
   Wl_market.run on the same config. *)

module K = Epcm_kernel
module Mgr = Epcm_manager
module G = Mgr_generic
module Engine = Sim_engine
module M = Spcm_market
module C = Pb_common
module T = Pb_trace

(* Builds per rep, each timed for setup_s: a build takes a millisecond
   or so, and one that runs into a major GC slice several times that, so
   many are timed and run.py keeps the fastest. *)
let setups = 20

let config scale ~seed =
  let base = match scale with C.Full -> Wl_market.production | C.Quick -> Wl_market.small in
  { base with Wl_market.c_seed = Int64.add base.Wl_market.c_seed (Int64.of_int seed) }

type tenant = {
  t_index : int;
  t_pages : int;
  t_hold_us : float;
  t_income : float;
  t_priority : float;
}

(* Wl_market's population draw, in index order. *)
let draw_tenants (cfg : Wl_market.config) rng =
  Array.init cfg.Wl_market.c_tenants (fun i ->
      let pages =
        cfg.Wl_market.c_pages_lo
        + Sim_rng.int rng (cfg.Wl_market.c_pages_hi - cfg.Wl_market.c_pages_lo + 1)
      in
      let hold =
        Sim_rng.uniform rng ~lo:cfg.Wl_market.c_hold_us_lo ~hi:cfg.Wl_market.c_hold_us_hi
      in
      let income, priority =
        if (i + 1) mod cfg.Wl_market.c_poor_every = 0 then (0.0005, 0.0)
        else if (i + 1) mod cfg.Wl_market.c_premium_every = 0 then (60.0, 10.0)
        else (25.0, 0.0)
      in
      { t_index = i; t_pages = pages; t_hold_us = hold; t_income = income; t_priority = priority })

type world = {
  cfg : Wl_market.config;
  machine : Hw_machine.t;
  kernel : K.t;
  spcm : Spcm.t;
  tenants : tenant array;
  arrival_rng : Sim_rng.t;
  mutable finished : int;
  mutable completed : int;
  mutable refused : int;
  mutable granted_frames : int;
  mutable saver_cycles : int;
  mutable saver_starved : int;
  mutable savers : G.t list;
  mutable late_max_us : float;
  acquire_us : C.Samples.t;
  samples : C.Samples.t;
}

let setup scale ~seed =
  let cfg = config scale ~seed in
  let machine =
    Hw_machine.create ~memory_bytes:cfg.Wl_market.c_memory_bytes
      ~page_size:cfg.Wl_market.c_page_size ()
  in
  let kernel = K.create machine in
  let spcm = Spcm.create kernel ~market:cfg.Wl_market.c_market () in
  let rng = Sim_rng.create cfg.Wl_market.c_seed in
  let tenant_rng = Sim_rng.split rng in
  let arrival_rng = Sim_rng.split rng in
  {
    cfg;
    machine;
    kernel;
    spcm;
    tenants = draw_tenants cfg tenant_rng;
    arrival_rng;
    finished = 0;
    completed = 0;
    refused = 0;
    granted_frames = 0;
    saver_cycles = 0;
    saver_starved = 0;
    savers = [];
    late_max_us = 0.0;
    acquire_us = C.Samples.create ();
    samples = C.Samples.create ();
  }

let machine w = w.machine

let all_done w = w.finished >= w.cfg.Wl_market.c_tenants

(* Open loop: a tenant is timed from the instant its arrival was due, so
   any lag of the generator behind its schedule counts against it. *)
let run_tenant w t ~due =
  w.late_max_us <- Float.max w.late_max_us (Engine.time () -. due);
  let name = Printf.sprintf "tenant-%05d" t.t_index in
  let client =
    Spcm.register_client ~income:t.t_income ~priority:t.t_priority w.spcm ~name ()
  in
  let seg = K.create_segment w.kernel ~name ~pages:t.t_pages () in
  let got =
    T.span T.spcm_acquire (fun () ->
        Spcm.acquire w.spcm ~client ~dst:seg ~dst_page:0 ~count:t.t_pages ())
  in
  if got = 0 then w.refused <- w.refused + 1
  else begin
    for page = 0 to got - 1 do
      C.touch w.kernel ~samples:w.samples ~space:seg ~page ~access:Mgr.Write
    done;
    C.Samples.add w.acquire_us (Engine.time () -. due);
    w.granted_frames <- w.granted_frames + got;
    Engine.delay t.t_hold_us;
    T.span T.spcm_return (fun () -> Spcm.return_pages w.spcm ~client ~seg ~page:0 ~count:got);
    w.completed <- w.completed + 1
  end;
  w.finished <- w.finished + 1

let run_saver w i =
  let cfg = w.cfg in
  let name = Printf.sprintf "saver-%d" i in
  let client = Spcm.register_client ~income:100.0 ~priority:(-1.0) w.spcm ~name () in
  let backing =
    match cfg.Wl_market.c_saver_backing with
    | Wl_market.Memory -> Mgr_backing.memory ()
    | Wl_market.Disk -> Mgr_backing.disk w.machine.Hw_machine.disk ~page_bytes:cfg.Wl_market.c_page_size
  in
  let mgr =
    G.create w.kernel ~name:(name ^ ".mgr") ~mode:`In_process ~backing
      ~source:(C.traced_source (Spcm.source_for w.spcm client))
      ~hooks:(C.traced_hooks ~backing)
      ~pool_capacity:(cfg.Wl_market.c_saver_pages + 32)
      ~refill_batch:64 ~reclaim_batch:32 ()
  in
  w.savers <- mgr :: w.savers;
  Spcm.set_client_manager w.spcm client (G.manager_id mgr);
  let seg =
    G.create_segment mgr ~name:(name ^ ".heap") ~pages:cfg.Wl_market.c_saver_pages ~kind:G.Anon ()
  in
  let account = (Spcm.account_of w.spcm client).M.acc_id in
  let rec cycle () =
    if not (all_done w) then begin
      (try
         for page = 0 to cfg.Wl_market.c_saver_pages - 1 do
           C.touch w.kernel ~samples:w.samples ~space:seg ~page ~access:Mgr.Write
         done
       with G.Out_of_frames _ -> w.saver_starved <- w.saver_starved + 1);
      Engine.delay cfg.Wl_market.c_saver_slice_us;
      let writebacks_before = (G.stats mgr).G.writebacks in
      let released = T.span T.mgr_swap_out (fun () -> G.swap_out mgr) in
      T.span T.spcm_return (fun () -> Spcm.note_returned w.spcm ~client ~count:released);
      let ios = (G.stats mgr).G.writebacks - writebacks_before in
      if ios > 0 then
        M.note_io (Spcm.market w.spcm) account ~ops:ios ~now_us:(Hw_machine.now w.machine);
      w.saver_cycles <- w.saver_cycles + 1;
      Engine.delay cfg.Wl_market.c_saver_idle_us;
      cycle ()
    end
  in
  cycle ()

let spawn w =
  let cfg = w.cfg in
  let engine = w.machine.Hw_machine.engine in
  for i = 0 to cfg.Wl_market.c_savers - 1 do
    Engine.spawn engine ~name:(Printf.sprintf "saver-%d" i) (T.proc (fun () -> run_saver w i))
  done;
  Engine.spawn engine ~name:"arrivals"
    (T.proc (fun () ->
         let due = ref (Engine.time ()) in
         Array.iter
           (fun t ->
             let gap = Sim_rng.exponential w.arrival_rng ~mean:cfg.Wl_market.c_mean_interarrival_us in
             due := !due +. gap;
             Engine.delay gap;
             let due = !due in
             Engine.fork ~name:(Printf.sprintf "tenant-%05d" t.t_index)
               (T.proc (fun () -> run_tenant w t ~due)))
           w.tenants));
  Engine.spawn engine ~name:"sweeper"
    (T.proc (fun () ->
         let rec loop () =
           if not (all_done w) then begin
             Engine.delay cfg.Wl_market.c_sweep_every_us;
             ignore (T.span T.spcm_sweep (fun () -> Spcm.sweep w.spcm) : int);
             loop ()
           end
         in
         loop ();
         ignore (Spcm.refuse_pending w.spcm : int)))

let outcome w =
  let cfg = w.cfg in
  Spcm.settle w.spcm;
  let market = Spcm.market w.spcm in
  let accounts = M.accounts market in
  let holdings_left = List.fold_left (fun acc a -> acc + a.M.holding_pages) 0 accounts in
  let residual = M.conservation_error market in
  let slo = cfg.Wl_market.c_slo_us in
  let n = C.Samples.count w.acquire_us in
  let misses =
    w.refused
    + Array.fold_left
        (fun acc x -> if x > slo then acc + 1 else acc)
        0
        (Array.sub w.acquire_us.C.Samples.data 0 n)
  in
  let p = C.Samples.percentiles w.acquire_us [ 50.0; 99.0 ] in
  let s = K.stats w.kernel in
  let tenants = cfg.Wl_market.c_tenants in
  let starved_fills = List.fold_left (fun acc g -> acc + (G.stats g).G.fill_failures) 0 w.savers in
  {
    C.attempted = tenants;
    failed = w.refused + w.saver_starved + starved_fills;
    lats =
      [
        { C.l_name = "acquire_p50_us"; l_value = List.nth p 0; l_unit = "us"; l_n = n };
        { C.l_name = "acquire_p99_us"; l_value = List.nth p 1; l_unit = "us"; l_n = n };
        {
          C.l_name = "slo_miss_frac";
          l_value = C.ratio (C.fi misses) (C.fi tenants);
          l_unit = "fraction";
          l_n = tenants;
        };
        { C.l_name = "arrival_late_max_us"; l_value = w.late_max_us; l_unit = "us"; l_n = tenants };
      ];
    sim =
      [
        ("events", C.fi (Engine.events_executed w.machine.Hw_machine.engine));
        ("sim_us", Hw_machine.now w.machine);
        ("completed", C.fi w.completed);
        ("refused", C.fi w.refused);
        ("defers", C.fi (Spcm.defer_events w.spcm));
        ("granted_frames", C.fi w.granted_frames);
        ("saver_cycles", C.fi w.saver_cycles);
        ("saver_starved", C.fi w.saver_starved);
        ("faults", C.fi (C.faults_of w.kernel));
      ];
    counters =
      C.hw_counters w.machine @ C.epcm_counters w.kernel @ C.generic_counters w.savers
      @ [
          ("spcm.defers", C.fi (Spcm.defer_events w.spcm));
          ("spcm.refused", C.fi w.refused);
        ];
    checks =
      C.conservation_checks w.kernel
      @ [
          C.check "market conservation error < 1e-9" (Float.abs residual < 1e-9)
            (Printf.sprintf "%.3g" residual);
          C.check "every tenant completed or was refused"
            (w.completed + w.refused = tenants && w.finished = tenants)
            (Printf.sprintf "%d + %d of %d" w.completed w.refused tenants);
          C.check "no queued acquires, no holdings left"
            (Spcm.pending_acquires w.spcm = 0 && holdings_left = 0)
            (Printf.sprintf "%d queued, %d pages held" (Spcm.pending_acquires w.spcm) holdings_left);
          C.check "touches match grants" (s.K.touches >= w.granted_frames) "";
        ];
  }

let library scale ~seed =
  let r = Wl_market.run (config scale ~seed) in
  [
    ("events", C.fi r.Wl_market.r_events);
    ("sim_us", r.Wl_market.r_sim_us);
    ("completed", C.fi r.Wl_market.r_completed);
    ("refused", C.fi r.Wl_market.r_refused);
    ("defers", C.fi r.Wl_market.r_defer_events);
    ("granted_frames", C.fi r.Wl_market.r_granted_frames);
    ("saver_cycles", C.fi r.Wl_market.r_saver_cycles);
    ("saver_starved", C.fi r.Wl_market.r_saver_starved);
    ("faults", C.fi r.Wl_market.r_faults);
  ]
