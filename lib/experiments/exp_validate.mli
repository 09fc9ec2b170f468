(** Unified record validation: the {!Exp_record} schemas of every
    versioned record (vpp-perf/2, vpp-market/1, vpp-profile/1,
    vpp-tier/1, vpp-cache/1, vpp-shard/1), dispatched on the record's
    embedded ["schema"] tag. `vpp_repro validate` is a thin shell around
    this. *)

val schemas : Exp_record.schema list
(** Every known record schema. *)

val known_schemas : string list
(** Their tags. *)

val validate : Sim_json.t -> (string, string) result
(** Dispatch a parsed record to its schema. [Ok tag] names the schema
    that validated. [Error] covers a missing ["schema"] tag, an unknown
    tag (both listing the known schemas), a missing or ill-typed field
    or failed shape condition, a missing ["checks"] array, and the first
    check that fails when re-derived from the record's body (prefixed
    with the schema tag). The embedded checks' own [pass] claims are not
    trusted. *)

val validate_string : string -> (string, string) result
(** {!validate} after parsing; JSON syntax errors become [Error]. *)
