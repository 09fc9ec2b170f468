(** Versioned machine-checked records, each defined once.

    A schema is a tag plus predicates over the record's JSON body. The
    same predicates run when a record is emitted (on the in-memory tree)
    and when a written file is validated (on the parsed tree), so the
    checks a record embeds and the checks validation re-derives cannot
    drift apart, and a record whose ["checks"] array was edited to claim
    a pass is still rejected. *)

type schema = {
  tag : string;  (** The ["schema"] field, e.g. ["vpp-cache/1"]. *)
  shape : Sim_json.t -> unit;
      (** Conditions no check implies (a field present, a rate in range,
          a list non-empty): run before [checks] at emit and at validate,
          never emitted. *)
  checks : Sim_json.t -> Exp_report.check list;
      (** Printed by the CLI, embedded as ["checks"], re-derived by
          validation. *)
}

type t = { json : Sim_json.t; checks : Exp_report.check list }

val emit : schema -> (string * Sim_json.t) list -> t
(** Prefix the schema tag to the body fields, evaluate the schema on
    that body and append the checks as the ["checks"] field. Raises
    [Invalid_argument] if the body is malformed or a shape condition
    fails: a program bug, not a failing check. *)

val derive : schema -> Sim_json.t -> (Exp_report.check list, string) result
(** Evaluate a schema on a record body, ignoring any ["checks"] field.
    [Error] is ["missing or ill-typed <field>"] or a failed shape
    condition. *)

val to_string : t -> string
(** The record printed stably (two-space indent, trailing newline). *)

(** {1 Writing schemas}

    Each accessor fails the evaluation with
    ["missing or ill-typed <name>"] when the member is absent or of the
    wrong type. *)

val num : string -> Sim_json.t -> float
val int : string -> Sim_json.t -> int
(** A number that must be integral. *)

val bool : string -> Sim_json.t -> bool
val str : string -> Sim_json.t -> string
val list : string -> Sim_json.t -> Sim_json.t list
val obj : string -> Sim_json.t -> Sim_json.t

val find : string -> (Sim_json.t -> bool) -> Sim_json.t list -> Sim_json.t
(** [find what pred items]: the first item satisfying [pred], or
    ["missing or ill-typed <what>"]. *)

val require : bool -> string -> unit
(** [require cond msg] fails the evaluation with [msg] unless [cond]. *)
