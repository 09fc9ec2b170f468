(* Sharded-DBMS throughput record (`vpp_repro shard`, vpp-shard/1).

   The same total transaction count runs through Db_shard at increasing
   shard counts; each shard is a self-contained deterministic machine,
   so a leg's shards fan over domains with Exp_par.map and the joined
   record is byte-identical to a sequential run. Aggregate throughput
   is total transactions over the slowest shard's simulated seconds —
   the honest parallel number: every shard has finished by then.

   Adding shards divides the per-shard WAL force rate (the bottleneck)
   while 2PC taxes only the cross fraction, so aggregate TPS must rise
   strictly with shard count; the embedded checks pin that, exact
   commit/abort accounting, a bounded abort rate, frame conservation on
   every machine, the single-shard zero-delta (no 2PC messages, no DSM
   transfers — the transport is never instantiated) and seed-replay
   identity of the multi-shard leg. Only the wall_s fields vary between
   runs. *)

module J = Sim_json
module R = Exp_record

type leg = {
  g_shards : int;
  g_txns : int;
  g_commits : int;
  g_aborts : int;
  g_abort_rate : float;
  g_local : int;
  g_cross : int;
  g_msgs : int;
  g_prepares : int;
  g_transfers : int;
  g_timeouts : int;
  g_tps : float;
  g_p50_ms : float;
  g_p99_ms : float;
  g_sim_s : float;
  g_conserved : bool;
  g_wall_s : float;
  g_detail : Db_shard.result list;
}

type result = {
  mode : string;
  jobs : int;
  total_txns : int;
  cross_fraction : float;
  legs : leg list;
  replay_identical : bool;
}

let abort_rate_bound = 0.05

let sum f detail = List.fold_left (fun acc (r : Db_shard.result) -> acc + f r) 0 detail
let fmax f detail = List.fold_left (fun acc (r : Db_shard.result) -> Float.max acc (f r)) 0.0 detail

let run_leg ~spec ~shards ~jobs =
  let spec = { spec with Db_shard.sp_shards = shards } in
  let t0 = Unix.gettimeofday () in
  let detail =
    Exp_par.map ~jobs (List.init shards (fun shard () -> Db_shard.run_shard spec ~shard))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let txns = sum (fun r -> r.Db_shard.r_txns) detail in
  let sim_s = fmax (fun r -> r.Db_shard.r_sim_us) detail /. 1_000_000.0 in
  {
    g_shards = shards;
    g_txns = txns;
    g_commits = sum (fun r -> r.Db_shard.r_commits) detail;
    g_aborts = sum (fun r -> r.Db_shard.r_aborts) detail;
    g_abort_rate =
      (if txns = 0 then 0.0
       else float_of_int (sum (fun r -> r.Db_shard.r_aborts) detail) /. float_of_int txns);
    g_local = sum (fun r -> r.Db_shard.r_local) detail;
    g_cross = sum (fun r -> r.Db_shard.r_cross) detail;
    g_msgs = sum (fun r -> r.Db_shard.r_msgs) detail;
    g_prepares = sum (fun r -> r.Db_shard.r_prepares) detail;
    g_transfers = sum (fun r -> r.Db_shard.r_dsm_transfers) detail;
    g_timeouts = sum (fun r -> r.Db_shard.r_lock_timeouts) detail;
    g_tps = (if sim_s > 0.0 then float_of_int txns /. sim_s else 0.0);
    g_p50_ms = fmax (fun r -> r.Db_shard.r_p50_ms) detail;
    g_p99_ms = fmax (fun r -> r.Db_shard.r_p99_ms) detail;
    g_sim_s = sim_s;
    g_conserved = List.for_all (fun (r : Db_shard.result) -> r.Db_shard.r_conserved) detail;
    g_wall_s = wall_s;
    g_detail = detail;
  }

(* The replay check compares everything but the wall clock. *)
let leg_eq a b = { a with g_wall_s = 0.0 } = { b with g_wall_s = 0.0 }

let checks body =
  let legs = R.list "legs" body and total_txns = R.int "total_txns" body in
  let shards = R.int "shards" and int = R.int and tps = R.num "tps" in
  let abort_rate = R.num "abort_rate" in
  let single = R.find "single-shard leg" (fun l -> shards l = 1) legs in
  let multi = List.filter (fun l -> shards l > 1) legs in
  let four = R.find "multi-shard leg" (fun l -> shards l > 1) legs in
  let rec increasing = function
    | a :: (b :: _ as rest) -> tps a < tps b && increasing rest
    | _ -> true
  in
  [
    Exp_report.check ~what:"frame conservation held on every shard machine, every leg"
      ~pass:(List.for_all (R.bool "conserved") legs)
      ~detail:
        (Printf.sprintf "%d legs, %d machines" (List.length legs)
           (List.fold_left (fun acc l -> acc + shards l) 0 legs));
    Exp_report.check ~what:"every transaction accounted: commits + aborts = total, every leg"
      ~pass:
        (List.for_all
           (fun l ->
             int "commits" l + int "aborts" l = int "txns" l
             && int "local" l + int "cross" l = int "txns" l
             && int "txns" l = total_txns)
           legs)
      ~detail:(Printf.sprintf "%d transactions per leg" total_txns);
    Exp_report.check
      ~what:
        (Printf.sprintf "abort rate bounded (< %.0f%%) in every leg" (100.0 *. abort_rate_bound))
      ~pass:(List.for_all (fun l -> abort_rate l < abort_rate_bound) legs)
      ~detail:
        (Printf.sprintf "worst %.3f%%"
           (100.0 *. List.fold_left (fun acc l -> Float.max acc (abort_rate l)) 0.0 legs));
    Exp_report.check ~what:"single shard is zero-delta: no 2PC messages, no DSM transfers"
      ~pass:
        (int "msgs" single = 0
        && int "dsm_transfers" single = 0
        && int "cross" single = 0
        && int "aborts" single = 0)
      ~detail:(Printf.sprintf "%d local transactions" (int "local" single));
    Exp_report.check ~what:"multi-shard legs run two-phase commits over the interconnect"
      ~pass:
        (List.for_all (fun l -> int "cross" l > 0 && int "msgs" l > 0 && int "prepares" l > 0) multi)
      ~detail:
        (Printf.sprintf "%d cross-shard txns, %d messages at %d shards" (int "cross" four)
           (int "msgs" four) (shards four));
    Exp_report.check ~what:"aggregate TPS strictly increasing with shard count"
      ~pass:(increasing legs)
      ~detail:(String.concat " -> " (List.map (fun l -> Printf.sprintf "%.0f" (tps l)) legs));
    Exp_report.check
      ~what:
        (Printf.sprintf "%d shards beat one shard on the same %d transactions" (shards four)
           total_txns)
      ~pass:(tps four > tps single)
      ~detail:
        (Printf.sprintf "%.0f vs %.0f TPS (x%.2f)" (tps four) (tps single)
           (tps four /. tps single));
    Exp_report.check ~what:"multi-shard leg deterministic per seed (replay identical)"
      ~pass:(R.bool "replay_identical" body)
      ~detail:(Printf.sprintf "seed %Ld" Db_shard.default.Db_shard.sp_seed);
  ]

let shape body =
  ignore (R.str "mode" body);
  R.require (R.int "total_txns" body > 0) "no transactions in the record";
  List.iter
    (fun leg ->
      let name = Printf.sprintf "%d-shard leg" (R.int "shards" leg) in
      R.require (R.num "abort_rate" leg >= 0.0) (name ^ ": abort rate out of bounds");
      R.require (R.num "tps" leg > 0.0) (name ^ ": no throughput recorded"))
    (R.list "legs" body)

let schema = { R.tag = "vpp-shard/1"; shape; checks }

let run ?(quick = false) ?(jobs = 1) () =
  let total_txns = if quick then 20_000 else 1_000_000 in
  let spec = { Db_shard.default with Db_shard.sp_total_txns = total_txns } in
  let shard_counts = if quick then [ 1; 4 ] else [ 1; 4; 8 ] in
  let legs = List.map (fun shards -> run_leg ~spec ~shards ~jobs) shard_counts in
  let replay = run_leg ~spec ~shards:4 ~jobs in
  let four = List.find (fun l -> l.g_shards = 4) legs in
  {
    mode = (if quick then "quick" else "full");
    jobs;
    total_txns;
    cross_fraction = spec.Db_shard.sp_cross_fraction;
    legs;
    replay_identical = leg_eq four replay;
  }

let shard_json (d : Db_shard.result) =
  J.Obj
    [
      ("shard", J.Num (float_of_int d.Db_shard.r_shard));
      ("txns", J.Num (float_of_int d.Db_shard.r_txns));
      ("commits", J.Num (float_of_int d.Db_shard.r_commits));
      ("aborts", J.Num (float_of_int d.Db_shard.r_aborts));
      ("local", J.Num (float_of_int d.Db_shard.r_local));
      ("cross", J.Num (float_of_int d.Db_shard.r_cross));
      ("p50_ms", J.Num d.Db_shard.r_p50_ms);
      ("p99_ms", J.Num d.Db_shard.r_p99_ms);
      ("tps", J.Num d.Db_shard.r_tps);
      ("sim_us", J.Num d.Db_shard.r_sim_us);
      ("events", J.Num (float_of_int d.Db_shard.r_events));
      ("msgs", J.Num (float_of_int d.Db_shard.r_msgs));
      ("prepares", J.Num (float_of_int d.Db_shard.r_prepares));
      ("wal_flushes", J.Num (float_of_int d.Db_shard.r_wal_flushes));
      ("dsm_transfers", J.Num (float_of_int d.Db_shard.r_dsm_transfers));
      ("lock_timeouts", J.Num (float_of_int d.Db_shard.r_lock_timeouts));
      ("frames", J.Num (float_of_int d.Db_shard.r_frames));
      ("conserved", J.Bool d.Db_shard.r_conserved);
    ]

let leg_json l =
  J.Obj
    [
      ("shards", J.Num (float_of_int l.g_shards));
      ("txns", J.Num (float_of_int l.g_txns));
      ("commits", J.Num (float_of_int l.g_commits));
      ("aborts", J.Num (float_of_int l.g_aborts));
      ("abort_rate", J.Num l.g_abort_rate);
      ("local", J.Num (float_of_int l.g_local));
      ("cross", J.Num (float_of_int l.g_cross));
      ("msgs", J.Num (float_of_int l.g_msgs));
      ("prepares", J.Num (float_of_int l.g_prepares));
      ("dsm_transfers", J.Num (float_of_int l.g_transfers));
      ("lock_timeouts", J.Num (float_of_int l.g_timeouts));
      ("tps", J.Num l.g_tps);
      ("p50_ms", J.Num l.g_p50_ms);
      ("p99_ms", J.Num l.g_p99_ms);
      ("sim_s", J.Num l.g_sim_s);
      ("conserved", J.Bool l.g_conserved);
      ("wall_s", J.Num l.g_wall_s);
      ("per_shard", J.List (List.map shard_json l.g_detail));
    ]

let body r =
  [
    ("mode", J.Str r.mode);
    ("jobs", J.Num (float_of_int r.jobs));
    ("total_txns", J.Num (float_of_int r.total_txns));
    ("cross_fraction", J.Num r.cross_fraction);
    ("legs", J.List (List.map leg_json r.legs));
    ("replay_identical", J.Bool r.replay_identical);
  ]

let emit r = R.emit schema (body r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Shard: parallel DBMS shards with two-phase commit (%s record, %s mode)\n"
       schema.R.tag r.mode);
  Buffer.add_string buf
    (Printf.sprintf
       "%d transactions per leg, %.0f%% cross-shard, %d worker(s) x %d CPU(s) per shard, \
        jobs=%d\n"
       r.total_txns
       (100.0 *. r.cross_fraction)
       Db_shard.default.Db_shard.sp_workers Db_shard.default.Db_shard.sp_cpus r.jobs);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "shards"; "txns"; "commit"; "abort"; "abort %"; "2pc msgs"; "dsm xfer"; "p50 ms";
           "p99 ms"; "sim (s)"; "agg TPS"; "wall (s)";
         ]
       ~rows:
         (List.map
            (fun l ->
              [
                string_of_int l.g_shards;
                string_of_int l.g_txns;
                string_of_int l.g_commits;
                string_of_int l.g_aborts;
                Printf.sprintf "%.3f" (100.0 *. l.g_abort_rate);
                string_of_int l.g_msgs;
                string_of_int l.g_transfers;
                Printf.sprintf "%.1f" l.g_p50_ms;
                Printf.sprintf "%.1f" l.g_p99_ms;
                Printf.sprintf "%.1f" l.g_sim_s;
                Printf.sprintf "%.0f" l.g_tps;
                Printf.sprintf "%.2f" l.g_wall_s;
              ])
            r.legs));
  (* Per-shard rows of the widest leg: the load-balance picture. *)
  let widest = List.fold_left (fun acc l -> if l.g_shards > acc.g_shards then l else acc)
      (List.hd r.legs) r.legs in
  Buffer.add_string buf
    (Printf.sprintf "\nPer-shard detail at %d shards:\n" widest.g_shards);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [ "shard"; "txns"; "commit"; "abort"; "cross"; "timeouts"; "flushes"; "p99 ms"; "TPS" ]
       ~rows:
         (List.map
            (fun (d : Db_shard.result) ->
              [
                string_of_int d.Db_shard.r_shard;
                string_of_int d.Db_shard.r_txns;
                string_of_int d.Db_shard.r_commits;
                string_of_int d.Db_shard.r_aborts;
                string_of_int d.Db_shard.r_cross;
                string_of_int d.Db_shard.r_lock_timeouts;
                string_of_int d.Db_shard.r_wal_flushes;
                Printf.sprintf "%.1f" d.Db_shard.r_p99_ms;
                Printf.sprintf "%.0f" d.Db_shard.r_tps;
              ])
            widest.g_detail));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks (emit r).R.checks);
  Buffer.contents buf
