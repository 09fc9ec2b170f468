(** The [vpp-market/1] record: the multi-tenant memory-market workload
    ({!Wl_market}) at one or two scales, with per-class SLO tables,
    market-conservation audits and machine-checked shape checks.

    The record is an {!Exp_record} schema: its checks (frame, process
    and dram conservation, every tenant completed or refused, admission
    deferrals and refusals occurring, solvency, SLO quantile ordering,
    billable time within simulated time) are evaluated on the emitted
    JSON and re-derived from a written file by [vpp_repro validate], so
    CI gates on the file itself. Wall-clock seconds come from
    [Unix.gettimeofday] — the same deliberate exception to the
    no-wall-clock rule as [Exp_scale]; every other field is deterministic
    from the workload seeds. *)

val schema : Exp_record.schema
(** ["vpp-market/1"]. *)

type leg = {
  l_result : Wl_market.result;
  l_wall_s : float;
}

type result = {
  mode : string;  (** "quick" (small leg only) or "full". *)
  jobs : int;
  legs : leg list;
}

val run : ?quick:bool -> ?jobs:int -> unit -> result
(** [quick] runs only the [small] leg; the full run adds [production]
    (~5,000 tenants). [jobs] fans the legs over domains ({!Exp_par.map});
    results are deterministic either way. *)

val emit : result -> Exp_record.t
val render : result -> string
