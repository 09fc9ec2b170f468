(** Observability profile: re-runs each Table 1 path with the metrics sink
    enabled and decomposes the pinned row totals into their span-attributed
    charges, then drives a deterministic demand-paging + WAL workload to
    populate latency histograms per operation kind. Emits a versioned,
    schema-stable JSON record ([BENCH_observability.json] /
    [vpp_repro profile --json]). *)

val schema : Exp_record.schema
(** ["vpp-profile/1"]. Bump when the record layout changes. Its checks
    pin each row's span sum and measured time to the Table 1 identity
    and require populated, ordered latency histograms. *)

type row = {
  p_label : string;  (** The identity's name in [Hw_cost] ([vpp_read_4kb], ...). *)
  p_pinned_us : float;  (** The documented Table 1 value. *)
  p_measured_us : float;  (** Simulated wall time of the operation. *)
  p_spans : (string * int * float) list;
      (** Span-attributed decomposition: (path, charge count, total us),
          sorted by path. Sums to [p_pinned_us]. *)
}

type result = {
  rows : row list;  (** The eight Table 1 identities, in table order. *)
  latency : (string * Sim_metrics.Hist.t) list;  (** Histograms by kind. *)
}

val run : unit -> result

val render : result -> string
(** Human-readable profile: per-row decompositions plus a quantile table. *)

val emit : result -> Exp_record.t
