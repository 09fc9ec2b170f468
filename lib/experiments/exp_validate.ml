(* The dispatcher reads the record's own "schema" tag, so callers need not
   know which command produced a file; `vpp_repro validate` is a thin
   shell around this module, and test_experiments drives every schema
   (and the error paths) through it directly. *)

let schemas =
  [
    Exp_scale.schema;
    Exp_market.schema;
    Exp_profile.schema;
    Exp_tier.schema;
    Exp_cache.schema;
    Exp_shard.schema;
  ]

let known_schemas = List.map (fun s -> s.Exp_record.tag) schemas

let known () = String.concat ", " known_schemas

(* The record's embedded "checks" array must be present, but its claims
   are not trusted: the schema's checks are re-derived from the body and
   the first failing one rejects the record. *)
let validate json =
  match Option.bind (Sim_json.member "schema" json) Sim_json.to_str with
  | None -> Error (Printf.sprintf "record has no \"schema\" tag (known schemas: %s)" (known ()))
  | Some tag -> (
      let invalid e = Error (Printf.sprintf "invalid %s record: %s" tag e) in
      match List.find_opt (fun s -> s.Exp_record.tag = tag) schemas with
      | None -> Error (Printf.sprintf "unknown schema %S (known schemas: %s)" tag (known ()))
      | Some schema -> (
          match
            ( Exp_record.derive schema json,
              Option.bind (Sim_json.member "checks" json) Sim_json.to_list )
          with
          | Error e, _ -> invalid e
          | Ok _, None -> invalid "missing or ill-typed checks"
          | Ok checks, Some _ -> (
              match List.find_opt (fun c -> not c.Exp_report.pass) checks with
              | Some c -> invalid ("failed check: " ^ c.Exp_report.what)
              | None -> Ok tag)))

let validate_string contents =
  match Sim_json.parse contents with
  | Error e -> Error (Printf.sprintf "JSON parse error: %s" e)
  | Ok json -> validate json
