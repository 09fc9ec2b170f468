(* debitcredit: shard 0 of a 2-shard Db_shard.default deployment, rebuilt
   from the layers' public functions so each layer call can be timed.
   8 closed-loop workers on 6 simulated CPUs, 10 % cross-shard two-phase
   commits (the remote participant is modelled inside this shard, with
   Mgr_dsm as the page transport), the WAL on the 1992 disk. At the
   preset seed, and at every other seed, it reproduces
   Db_shard.run_shard on the same spec. *)

module K = Epcm_kernel
module Seg = Epcm_segment
module Engine = Sim_engine
module Resource = Sim_sync.Resource
module Rng = Sim_rng
module C = Pb_common
module T = Pb_trace

(* Builds per rep, each timed for setup_s: a build takes a millisecond
   or so, and one that runs into a major GC slice several times that, so
   many are timed and run.py keeps the fastest. *)
let setups = 20

let shard = 0

let spec scale ~seed =
  {
    Db_shard.default with
    Db_shard.sp_shards = 2;
    sp_total_txns = (match scale with C.Full -> 800_000 | C.Quick -> 8_000);
    sp_seed = Int64.add Db_shard.default.Db_shard.sp_seed (Int64.of_int seed);
  }

(* Db_shard's WAL drive. *)
let shard_disk = { Hw_disk.seek_us = 9_200.0; half_rotation_us = 4_150.0; us_per_kb = 170.0 }

type world = {
  spec : Db_shard.spec;
  machine : Hw_machine.t;
  kernel : K.t;
  mgr : Mgr_dbms.t;
  seg_accounts : Seg.id;
  locks : Db_locks.t;
  wal : Db_wal.t;
  cpus : Resource.t;
  rng : Rng.t;
  dsm : Mgr_dsm.t;
  remote_locks : Db_locks.t array;
  remote_wals : Db_wal.t array;
  coord : Db_coord.t;
  mutable next_txn : int;
  mutable commits : int;
  mutable aborts : int;
  mutable local_txns : int;
  mutable cross_txns : int;
  mutable cross_commits : int;
  latencies : Sim_stats.Series.t;
  outcomes : (int, bool) Hashtbl.t;  (* cross txn -> committed, as run_txn saw it *)
  mutable span_sum_mismatches : int;
  samples : C.Samples.t;
}

let setup scale ~seed =
  let spec = spec scale ~seed in
  let pool_capacity = 256 in
  let dsm_pages = spec.Db_shard.sp_shards * spec.Db_shard.sp_remote_pages in
  let total_pages = spec.Db_shard.sp_accounts_pages + dsm_pages + pool_capacity + 512 in
  let machine =
    Hw_machine.create ~preset:Hw_machine.Sgi_4d_380 ~memory_bytes:(total_pages * 4096)
      ~disk_params:shard_disk ()
  in
  let kernel = K.create machine in
  (* Db_shard's source is the same monotone initial-segment scan, uncapped. *)
  let source = C.traced_source (C.capped_source kernel ~budget:max_int) in
  let mgr =
    Mgr_dbms.create kernel ~name:(Printf.sprintf "shard-%d-dbms" shard) ~source ~pool_capacity ()
  in
  let seg_accounts =
    Mgr_dbms.create_relation mgr ~name:(Printf.sprintf "shard-%d-accounts" shard)
      ~pages:spec.Db_shard.sp_accounts_pages
  in
  let wal = Db_wal.create machine.Hw_machine.disk () in
  let dsm =
    Mgr_dsm.create kernel ~name:(Printf.sprintf "shard-%d-dsm" shard) ~source
      ~nodes:spec.Db_shard.sp_shards ~pages:spec.Db_shard.sp_remote_pages
      ~net_latency_us:spec.Db_shard.sp_net_latency_us ()
  in
  let peers = spec.Db_shard.sp_shards in
  let coord = Db_coord.create ~wal ~net:(fun ~messages -> Mgr_dsm.charge_messages dsm ~messages) () in
  {
    spec;
    machine;
    kernel;
    mgr;
    seg_accounts;
    locks = Db_locks.create ();
    wal;
    cpus = Resource.create machine.Hw_machine.engine ~capacity:spec.Db_shard.sp_cpus;
    rng = Rng.create (Int64.add spec.Db_shard.sp_seed (Int64.of_int (7919 * (shard + 1))));
    dsm;
    remote_locks = Array.init peers (fun _ -> Db_locks.create ());
    remote_wals = Array.init peers (fun _ -> Db_wal.create machine.Hw_machine.disk ());
    coord;
    next_txn = 0;
    commits = 0;
    aborts = 0;
    local_txns = 0;
    cross_txns = 0;
    cross_commits = 0;
    latencies = Sim_stats.Series.create ();
    outcomes = Hashtbl.create 4096;
    span_sum_mismatches = 0;
    samples = C.Samples.create ();
  }

let machine w = w.machine

(* --- traced layer calls --- *)

let acquire locks ~txn res mode =
  T.span T.lock_acquire (fun () -> Db_locks.acquire locks ~txn res mode)

let acquire_timeout locks ~txn res mode ~timeout_us =
  T.span T.lock_acquire_timeout (fun () ->
      Db_locks.acquire_timeout locks ~txn res mode ~timeout_us)

let release_all locks ~txn = T.span T.lock_release (fun () -> Db_locks.release_all locks ~txn)
let append wal = T.span T.wal_append (fun () -> Db_wal.append wal)
let commit wal ~lsn = T.span T.wal_commit (fun () -> Db_wal.commit wal ~lsn)

let cpu_ms w ms =
  T.span T.sim_cpu (fun () ->
      Resource.use w.cpus (fun () ->
          T.span T.sim_cpu_service (fun () -> Engine.delay (ms *. 1000.0))))

let touch_run w ~from =
  let last = w.spec.Db_shard.sp_accounts_pages - 1 in
  for i = 0 to w.spec.Db_shard.sp_touch_pages - 1 do
    C.touch w.kernel ~samples:w.samples ~space:w.seg_accounts ~page:(min last (from + i))
      ~access:Epcm_manager.Write
  done

(* --- the transaction bodies of Db_shard --- *)

let local_txn w rng ~txn =
  acquire w.locks ~txn Db_locks.Database Db_locks.IX;
  let page = Rng.int rng w.spec.Db_shard.sp_accounts_pages in
  acquire w.locks ~txn (Db_locks.Page (0, page)) Db_locks.X;
  touch_run w ~from:page;
  cpu_ms w w.spec.Db_shard.sp_service_ms;
  let lsn = append w.wal in
  Db_wal.note_page_write w.wal ~seg:w.seg_accounts ~page ~lsn;
  let ok =
    try
      commit w.wal ~lsn;
      true
    with Db_wal.Flush_failed _ -> false
  in
  release_all w.locks ~txn;
  ok

let cross_txn w rng ~txn =
  let spec = w.spec in
  let remote =
    let r = Rng.int rng (spec.Db_shard.sp_shards - 1) in
    if r >= shard then r + 1 else r
  in
  let lpage = Rng.int rng spec.Db_shard.sp_accounts_pages in
  let rpage =
    if Rng.bernoulli rng 0.5 then Rng.int rng spec.Db_shard.sp_hot_remote_pages
    else Rng.int rng spec.Db_shard.sp_remote_pages
  in
  let prepare f () = T.span T.coord_prepare f in
  let local =
    {
      Db_coord.p_name = "local";
      p_prepare =
        prepare (fun () ->
            acquire w.locks ~txn Db_locks.Database Db_locks.IX;
            acquire w.locks ~txn (Db_locks.Page (0, lpage)) Db_locks.X;
            touch_run w ~from:lpage;
            cpu_ms w spec.Db_shard.sp_service_ms;
            let lsn = append w.wal in
            Db_wal.note_page_write w.wal ~seg:w.seg_accounts ~page:lpage ~lsn;
            try
              commit w.wal ~lsn;
              Db_coord.Prepared
            with Db_wal.Flush_failed _ -> Db_coord.Vote_abort);
      p_commit = (fun () -> release_all w.locks ~txn);
      p_abort = (fun () -> release_all w.locks ~txn);
    }
  in
  let rlocks = w.remote_locks.(remote) in
  let rwal = w.remote_wals.(remote) in
  let remote_part =
    {
      Db_coord.p_name = Printf.sprintf "shard-%d" remote;
      p_prepare =
        prepare (fun () ->
            if
              not
                (acquire_timeout rlocks ~txn (Db_locks.Page (remote, rpage)) Db_locks.X
                   ~timeout_us:spec.Db_shard.sp_lock_timeout_us)
            then Db_coord.Vote_abort
            else begin
              ignore
                (T.span T.dsm_read (fun () -> Mgr_dsm.read w.dsm ~node:remote ~page:rpage)
                  : Hw_page_data.t);
              let lsn = append rwal in
              try
                commit rwal ~lsn;
                Db_coord.Prepared
              with Db_wal.Flush_failed _ -> Db_coord.Vote_abort
            end);
      p_commit =
        (fun () ->
          T.span T.dsm_write (fun () ->
              Mgr_dsm.write w.dsm ~node:remote ~page:rpage
                (Hw_page_data.block ~file:(4000 + remote) ~block:rpage ~version:txn));
          ignore (append rwal : Db_wal.lsn);
          release_all rlocks ~txn);
      p_abort = (fun () -> release_all rlocks ~txn);
    }
  in
  let outcome = T.span T.coord_run (fun () -> Db_coord.run w.coord ~txn [ local; remote_part ]) in
  let committed = outcome = Db_coord.Committed in
  Hashtbl.replace w.outcomes txn committed;
  if committed then w.cross_commits <- w.cross_commits + 1;
  committed

let run_txn w rng =
  w.next_txn <- w.next_txn + 1;
  let txn = (shard * 10_000_000) + w.next_txn in
  let arrival = Engine.time () in
  let in_spans0 = T.sim_in_spans () in
  let cross = Rng.bernoulli rng w.spec.Db_shard.sp_cross_fraction in
  let committed = if cross then cross_txn w rng ~txn else local_txn w rng ~txn in
  if cross then w.cross_txns <- w.cross_txns + 1 else w.local_txns <- w.local_txns + 1;
  if committed then w.commits <- w.commits + 1 else w.aborts <- w.aborts + 1;
  let latency = Engine.time () -. arrival in
  (* Traced: the simulated self-times of the transaction's spans must add
     up to its latency — no simulated time passes outside a span. *)
  if !T.on && Float.abs (T.sim_in_spans () -. in_spans0 -. latency) > 1e-6 *. Float.max 1.0 latency
  then w.span_sum_mismatches <- w.span_sum_mismatches + 1;
  Sim_stats.Series.add w.latencies (latency /. 1000.0)

let spawn w =
  let spec = w.spec in
  let engine = w.machine.Hw_machine.engine in
  let share = Db_shard.shard_txns spec ~shard in
  for worker = 0 to spec.Db_shard.sp_workers - 1 do
    let quota =
      (share / spec.Db_shard.sp_workers)
      + if worker < share mod spec.Db_shard.sp_workers then 1 else 0
    in
    let rng = Rng.split w.rng in
    if quota > 0 then
      Engine.spawn engine ~name:(Printf.sprintf "shard-%d-worker-%d" shard worker)
        (T.proc (fun () ->
             for _ = 1 to quota do
               run_txn w rng
             done))
  done

let lock_timeouts w =
  Db_locks.timeouts w.locks + Array.fold_left (fun acc l -> acc + Db_locks.timeouts l) 0 w.remote_locks

let outcome w =
  let engine = w.machine.Hw_machine.engine in
  let sim_us = Hw_machine.now w.machine in
  let txns = w.commits + w.aborts in
  let n = Sim_stats.Series.count w.latencies in
  let pct p = if n = 0 then 0.0 else Sim_stats.Series.percentile w.latencies p in
  let tps = if sim_us > 0.0 then C.fi txns /. (sim_us /. 1e6) else 0.0 in
  let share = Db_shard.shard_txns w.spec ~shard in
  let recover_mismatches =
    Hashtbl.fold
      (fun txn committed acc ->
        let r = Db_coord.recover w.coord ~txn = Db_coord.Committed in
        if r = committed then acc else acc + 1)
      w.outcomes 0
  in
  {
    C.attempted = txns;
    failed = w.aborts;
    lats =
      [
        { C.l_name = "commit_p50_ms"; l_value = pct 50.0; l_unit = "ms"; l_n = n };
        { C.l_name = "commit_p99_ms"; l_value = pct 99.0; l_unit = "ms"; l_n = n };
        { C.l_name = "sim_tps"; l_value = tps; l_unit = "1/s"; l_n = n };
      ];
    sim =
      [
        ("events", C.fi (Engine.events_executed engine));
        ("sim_us", sim_us);
        ("txns", C.fi txns);
        ("commits", C.fi w.commits);
        ("aborts", C.fi w.aborts);
        ("local", C.fi w.local_txns);
        ("cross", C.fi w.cross_txns);
        ("wal_flushes", C.fi (Db_wal.flushes w.wal));
        ("msgs", C.fi (Db_coord.messages w.coord));
        ("prepares", C.fi (Db_coord.prepares w.coord));
        ("dsm_transfers", C.fi (Mgr_dsm.transfers w.dsm));
        ("lock_timeouts", C.fi (lock_timeouts w));
      ];
    counters =
      C.hw_counters w.machine @ C.epcm_counters w.kernel
      @ C.generic_counters [ Mgr_dbms.generic w.mgr ]
      @ [
          ("mgr.dsm.transfers", C.fi (Mgr_dsm.transfers w.dsm));
          ("dbms.wal.flushes_per_commit", C.ratio (C.fi (Db_wal.flushes w.wal)) (C.fi w.commits));
          ("dbms.lock.timeouts", C.fi (lock_timeouts w));
          ("dbms.coord.msgs", C.fi (Db_coord.messages w.coord));
        ];
    checks =
      C.conservation_checks ~tiered:true w.kernel
      @ [
          C.check "every transaction committed or aborted, exactly once"
            (txns = share && w.local_txns + w.cross_txns = txns && n = txns)
            (Printf.sprintf "%d commits + %d aborts of %d" w.commits w.aborts share);
          C.check "coordinator accounting matches the transactions run"
            (Db_coord.started w.coord = w.cross_txns
            && Db_coord.committed w.coord = w.cross_commits
            && Db_coord.committed w.coord + Db_coord.aborted w.coord = w.cross_txns)
            (Printf.sprintf "%d started, %d committed" (Db_coord.started w.coord)
               (Db_coord.committed w.coord));
          C.check "Db_coord.recover agrees with every 2PC outcome" (recover_mismatches = 0)
            (Printf.sprintf "%d of %d disagree" recover_mismatches (Hashtbl.length w.outcomes));
          C.check "per-transaction simulated self-times sum to commit latency"
            (w.span_sum_mismatches = 0)
            (Printf.sprintf "%d mismatches" w.span_sum_mismatches);
        ];
  }

let library scale ~seed =
  let r = Db_shard.run_shard (spec scale ~seed) ~shard in
  [
    ("events", C.fi r.Db_shard.r_events);
    ("sim_us", r.Db_shard.r_sim_us);
    ("txns", C.fi r.Db_shard.r_txns);
    ("commits", C.fi r.Db_shard.r_commits);
    ("aborts", C.fi r.Db_shard.r_aborts);
    ("local", C.fi r.Db_shard.r_local);
    ("cross", C.fi r.Db_shard.r_cross);
    ("wal_flushes", C.fi r.Db_shard.r_wal_flushes);
    ("msgs", C.fi r.Db_shard.r_msgs);
    ("prepares", C.fi r.Db_shard.r_prepares);
    ("dsm_transfers", C.fi r.Db_shard.r_dsm_transfers);
    ("lock_timeouts", C.fi r.Db_shard.r_lock_timeouts);
    ("commit_p50_ms", r.Db_shard.r_p50_ms);
    ("commit_p99_ms", r.Db_shard.r_p99_ms);
    ("sim_tps", r.Db_shard.r_tps);
  ]
