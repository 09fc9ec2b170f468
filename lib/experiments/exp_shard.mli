(** Sharded-DBMS throughput record (`vpp_repro shard`,
    [BENCH_shard.json], schema [vpp-shard/1]).

    Runs the same total transaction count through {!Db_shard} at
    increasing shard counts — 1 and 4 in quick mode, 1/4/8 in full —
    fanning the shards of each leg over OCaml 5 domains with
    {!Exp_par.map} (each shard is a self-contained deterministic
    machine, so the joined record is byte-identical to a sequential
    run), then re-runs the 4-shard leg and pins the replay identical.

    The record's {!Exp_record} checks gate the exit status of
    `vpp_repro shard` and, re-derived by `vpp_repro validate`, the
    [@shard-smoke] CI alias: aggregate TPS strictly increasing with
    shard count (the 4-shard leg must beat the single shard on the same
    total work), bounded abort rate, per-shard frame conservation,
    exact commit/abort accounting, the single-shard zero-delta (no 2PC
    messages, no DSM transfers), and seed-replay identity.

    Deterministic fields reproduce exactly across hosts; only the
    [wall_s] fields vary. *)

val schema : Exp_record.schema
(** ["vpp-shard/1"]. Bump when the record layout changes. *)

type leg = {
  g_shards : int;
  g_txns : int;  (** Transactions executed (= commits + aborts). *)
  g_commits : int;
  g_aborts : int;
  g_abort_rate : float;
  g_local : int;
  g_cross : int;  (** Two-shard transactions run through 2PC. *)
  g_msgs : int;  (** 2PC protocol messages, summed over shards. *)
  g_prepares : int;
  g_transfers : int;  (** DSM page copies shipped. *)
  g_timeouts : int;  (** Lock waits that expired into abort votes. *)
  g_tps : float;
      (** Aggregate: total transactions over the {e slowest} shard's
          simulated seconds. *)
  g_p50_ms : float;  (** Worst shard's median latency. *)
  g_p99_ms : float;  (** Worst shard's p99 latency. *)
  g_sim_s : float;  (** Slowest shard's simulated seconds. *)
  g_conserved : bool;  (** Frame audit held on every shard machine. *)
  g_wall_s : float;
  g_detail : Db_shard.result list;  (** Per-shard rows, in shard order. *)
}

type result = {
  mode : string;  (** ["full"] or ["quick"]. *)
  jobs : int;
  total_txns : int;
  cross_fraction : float;
  legs : leg list;  (** Ascending shard count. *)
  replay_identical : bool;
      (** The re-run 4-shard leg matched field for field (wall
          excluded). *)
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] (CI smoke) drops the 8-shard leg and shrinks the
    transaction count; [jobs] (default 1) fans each leg's shards over
    that many domains — deterministic fields are byte-identical to a
    sequential run. *)

val emit : result -> Exp_record.t
val render : result -> string
