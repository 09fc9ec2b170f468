(* End-to-end tests: every table and figure regenerates with its shape
   checks passing — the headline claim of the reproduction. *)

let check_bool = Alcotest.(check bool)

let render_failures checks =
  checks
  |> List.filter (fun c -> not c.Exp_report.pass)
  |> List.map (fun c -> c.Exp_report.what ^ " — " ^ c.Exp_report.detail)
  |> String.concat "; "

let assert_all_pass checks =
  if not (Exp_report.all_pass checks) then Alcotest.fail (render_failures checks)

let test_table1 () =
  let r = Exp_table1.run () in
  assert_all_pass r.Exp_table1.checks;
  (* The headline numbers are exact. *)
  List.iter
    (fun (row : Exp_table1.row) ->
      match (row.Exp_table1.vpp_us, row.Exp_table1.paper_vpp) with
      | Some measured, Some paper ->
          check_bool (row.Exp_table1.label ^ " matches paper") true
            (Float.abs (measured -. paper) < 0.5)
      | _ -> ())
    r.Exp_table1.rows

let test_table2 () = assert_all_pass (Exp_table2.run ()).Exp_table2.checks
let test_table3 () = assert_all_pass (Exp_table3.run ()).Exp_table3.checks

let test_table4_quick () =
  let r = Exp_table4.run ~quick:true () in
  assert_all_pass r.Exp_table4.checks

let test_figures () =
  let r = Exp_figures.run () in
  assert_all_pass r.Exp_figures.checks

let test_substrate_stats () =
  let r = Exp_substrate.run () in
  assert_all_pass r.Exp_substrate.checks;
  (* The rescans exercise the translation path: the mapping hash must have
     served warm touches. *)
  List.iter
    (fun (row : Exp_substrate.row) ->
      check_bool (row.Exp_substrate.program ^ ": hash exercised") true
        (row.Exp_substrate.pt_hits > 0))
    r.Exp_substrate.rows

let test_ablations_hold () =
  List.iter
    (fun a ->
      check_bool (a.Exp_ablations.a_name ^ " finding holds") true a.Exp_ablations.holds;
      check_bool (a.Exp_ablations.a_name ^ " has rows") true
        (List.length a.Exp_ablations.rows >= 2))
    (Exp_ablations.run_all ())

(* ------------------------------------------------------------------ *)
(* Exp_par: the domain-parallel driver                                *)
(* ------------------------------------------------------------------ *)

(* In-order join is the driver's whole contract: however completion
   interleaves across domains, results come back in input order, so
   [concat] is byte-identical to a sequential String.concat. *)
let test_par_in_order_join () =
  let tasks n = List.init n (fun i () -> Printf.sprintf "task-%02d" i) in
  List.iter
    (fun jobs ->
      let n = 13 in
      Alcotest.(check (list string))
        (Printf.sprintf "map ~jobs:%d preserves input order" jobs)
        (List.map (fun f -> f ()) (tasks n))
        (Exp_par.map ~jobs (tasks n));
      Alcotest.(check string)
        (Printf.sprintf "concat ~jobs:%d = sequential concat" jobs)
        (String.concat "|" (List.map (fun f -> f ()) (tasks n)))
        (Exp_par.concat ~jobs ~sep:"|" (tasks n)))
    [ 1; 2; 4; 32 ];
  Alcotest.(check (list string)) "empty task list" [] (Exp_par.map ~jobs:4 [])

(* A task exception must surface after the join, not vanish with its
   domain — a silently dropped ablation would look like success. *)
let test_par_reraises () =
  List.iter
    (fun jobs ->
      match
        Exp_par.map ~jobs
          [ (fun () -> "ok"); (fun () -> failwith "task exploded"); (fun () -> "also ok") ]
      with
      | _ -> Alcotest.failf "jobs=%d: expected the task's exception" jobs
      | exception Failure msg ->
          Alcotest.(check string) "original exception" "task exploded" msg)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Exp_scale: the vpp-perf/2 record                                   *)
(* ------------------------------------------------------------------ *)

(* One quick record per schema, shared by the cases below: each run costs
   up to a few seconds. *)
let quick_record = lazy (Exp_scale.run ~quick:true ~jobs:2 ())

let quick_records =
  lazy
    [
      (Exp_scale.schema, Exp_scale.emit (Lazy.force quick_record));
      (Exp_market.schema, Exp_market.emit (Exp_market.run ~quick:true ()));
      (Exp_profile.schema, Exp_profile.emit (Exp_profile.run ()));
      (Exp_tier.schema, Exp_tier.emit (Exp_tier.run ~quick:true ()));
      (Exp_cache.schema, Exp_cache.emit (Exp_cache.run ~quick:true ()));
      (Exp_shard.schema, Exp_shard.emit (Exp_shard.run ~quick:true ~jobs:2 ()));
    ]

let quick_json schema =
  (List.assq schema (Lazy.force quick_records)).Exp_record.json

let test_perf_record_quick () =
  let r = Lazy.force quick_record in
  let record = Exp_scale.emit r in
  assert_all_pass record.Exp_record.checks;
  check_bool "parallel driver output identical" true r.Exp_scale.driver.Exp_scale.d_identical;
  (* The record validates both as the in-memory tree and after a print →
     parse round-trip, which is what `vpp_repro validate` consumes. *)
  (match Exp_validate.validate record.Exp_record.json with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("in-memory record invalid: " ^ e));
  match Exp_validate.validate_string (Exp_record.to_string record) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("round-tripped record invalid: " ^ e)

(* The validator must reject, not mis-accept, the failure modes a perf
   regression would actually produce. *)
let test_perf_record_validator_rejects () =
  let reject what json =
    match Exp_validate.validate json with
    | Ok _ -> Alcotest.fail ("validator accepted " ^ what)
    | Error _ -> ()
  in
  let parse s = match Sim_json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  reject "wrong schema" (parse {|{"schema": "vpp-perf/0"}|});
  reject "missing scales" (parse {|{"schema": "vpp-perf/2", "mode": "full"}|});
  let drop_first_scale = function
    | Sim_json.Obj fields ->
        Sim_json.Obj
          (List.map
             (function
               | "scales", Sim_json.List (_ :: rest) -> ("scales", Sim_json.List rest)
               | kv -> kv)
             fields)
    | j -> j
  in
  reject "a single remaining scale" (drop_first_scale (quick_json Exp_scale.schema))

(* ------------------------------------------------------------------ *)
(* Exp_validate: the unified schema dispatcher                         *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_validate_known_schemas () =
  List.iter
    (fun schema ->
      let tag = schema.Exp_record.tag in
      check_bool (tag ^ " is a known schema") true (List.mem tag Exp_validate.known_schemas))
    [
      Exp_scale.schema;
      Exp_market.schema;
      Exp_profile.schema;
      Exp_tier.schema;
      Exp_cache.schema;
      Exp_shard.schema;
    ];
  Alcotest.(check int) "exactly the six known schemas" 6
    (List.length Exp_validate.known_schemas)

(* Every schema the dispatcher knows, dispatched both from the in-memory
   tree and through the string (parse) entry point, from the quick
   experiment configurations. *)
let test_validate_dispatches_all_schemas () =
  List.iter
    (fun (schema, record) ->
      let expect = schema.Exp_record.tag in
      (match Exp_validate.validate_string (Exp_record.to_string record) with
      | Ok tag -> Alcotest.(check string) (expect ^ ": dispatched to its schema") expect tag
      | Error e -> Alcotest.fail (expect ^ ": " ^ e));
      match Exp_validate.validate record.Exp_record.json with
      | Ok tag -> Alcotest.(check string) (expect ^ ": tree dispatch") expect tag
      | Error e -> Alcotest.fail (expect ^ ": " ^ e))
    (Lazy.force quick_records)

(* The checks a command prints are the checks validation re-derives from
   the written file: same what, same verdict, same order. *)
let test_validate_rederives_emitted_checks () =
  let summary checks = List.map (fun c -> (c.Exp_report.what, c.Exp_report.pass)) checks in
  List.iter
    (fun (schema, record) ->
      let tag = schema.Exp_record.tag in
      match Sim_json.parse (Exp_record.to_string record) with
      | Error e -> Alcotest.fail (tag ^ ": record does not parse: " ^ e)
      | Ok json -> (
          match Exp_record.derive schema json with
          | Error e -> Alcotest.fail (tag ^ ": " ^ e)
          | Ok checks ->
              Alcotest.(check (list (pair string bool)))
                (tag ^ ": re-derived checks = emitted checks")
                (summary record.Exp_record.checks) (summary checks)))
    (Lazy.force quick_records)

(* [doctor ~where ~key f json] rewrites member [key] with [f] in every
   object of [json] (at any depth) whose fields satisfy [where]. The
   record's "checks" array is left alone, so it still claims a pass. *)
let rec doctor ~where ~key f = function
  | Sim_json.Obj fields ->
      let fields = List.map (fun (k, v) -> (k, doctor ~where ~key f v)) fields in
      Sim_json.Obj
        (if where fields then List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields
         else fields)
  | Sim_json.List items -> Sim_json.List (List.map (doctor ~where ~key f) items)
  | j -> j

let has key value fields = List.assoc_opt key fields = Some value
let set v _ = v
let add d = function Sim_json.Num v -> Sim_json.Num (v +. d) | j -> j

let reject_doctored what ~expect json =
  match Exp_validate.validate json with
  | Ok tag -> Alcotest.fail ("dispatcher accepted " ^ what ^ " as " ^ tag)
  | Error e ->
      check_bool
        (Printf.sprintf "%s rejected for the right reason (got %S)" what e)
        true (contains ~needle:expect e)

let test_validate_rejects () =
  let reject what ~expect input =
    match Exp_validate.validate_string input with
    | Ok tag -> Alcotest.fail ("dispatcher accepted " ^ what ^ " as " ^ tag)
    | Error e ->
        check_bool
          (Printf.sprintf "%s: error mentions %S (got %S)" what expect e)
          true (contains ~needle:expect e)
  in
  reject "JSON syntax garbage" ~expect:"JSON parse error" "{not json";
  reject "a record with no schema tag" ~expect:"no \"schema\" tag" {|{"mode": "quick"}|};
  (* Both error paths must name the known schemas so the caller can see
     what the build actually supports. *)
  reject "a record with no schema tag" ~expect:Exp_cache.schema.Exp_record.tag
    {|{"mode": "quick"}|};
  reject "an unknown schema" ~expect:"unknown schema" {|{"schema": "vpp-frobnicate/9"}|};
  reject "an unknown schema" ~expect:Exp_tier.schema.Exp_record.tag
    {|{"schema": "vpp-frobnicate/9"}|};
  (* Nothing emits the pre-superpage layout any more. *)
  reject "a vpp-perf/1 record" ~expect:"unknown schema"
    {|{"schema": "vpp-perf/1", "mode": "quick", "scales": [], "checks": []}|};
  (* Known schema, malformed body: the dispatcher reaches the schema and
     prefixes its complaint with the tag. *)
  reject "an empty vpp-cache/1 record" ~expect:"invalid vpp-cache/1 record"
    {|{"schema": "vpp-cache/1"}|};
  reject "an empty vpp-tier/1 record" ~expect:"invalid vpp-tier/1 record"
    {|{"schema": "vpp-tier/1"}|};
  reject "an empty vpp-shard/1 record" ~expect:"invalid vpp-shard/1 record"
    {|{"schema": "vpp-shard/1"}|};
  (* A failing vpp-cache/1 gate: colored not better than random. *)
  reject_doctored "a doctored cache record"
    ~expect:"failed check: colored placement beats random on miss rate"
    (doctor
       ~where:(List.mem_assoc "miss_rate")
       ~key:"miss_rate" (set (Sim_json.Num 0.5))
       (quick_json Exp_cache.schema));
  (* A failing vpp-shard/1 gate: the single-shard baseline claiming 2PC
     traffic — the zero-delta discipline broken in the record itself. *)
  reject_doctored "a doctored shard record"
    ~expect:"failed check: single shard is zero-delta"
    (doctor
       ~where:(has "shards" (Sim_json.Num 1.0))
       ~key:"msgs" (set (Sim_json.Num 8.0))
       (quick_json Exp_shard.schema))

(* One record per schema doctored past a condition only its embedded
   checks state, with its "checks" array still claiming every pass: the
   re-derived check rejects it. *)
let test_validate_rejects_doctored_claims () =
  let cases =
    [
      ( "a perf record whose superpage leg never split a region",
        Exp_scale.schema,
        "stream: superpage leg promoted and split regions",
        doctor ~where:(has "superpages" (Sim_json.Bool true)) ~key:"sp_demotions"
          (set (Sim_json.Num 0.0)) );
      ( "a market record with a negative balance",
        Exp_market.schema,
        "small: all solvent classes stayed solvent",
        doctor ~where:(List.mem_assoc "min_balance") ~key:"min_balance"
          (set (Sim_json.Num (-1.0))) );
      ( "a profile record whose measured time drifted from the pin",
        Exp_profile.schema,
        "vpp_read_4kb measured time equals the pinned identity",
        doctor ~where:(has "row" (Sim_json.Str "vpp_read_4kb")) ~key:"measured_us" (add 1.0) );
      ( "a tier record whose manager never promoted",
        Exp_tier.schema,
        "scale: manager exercised promotion and demotion",
        doctor ~where:(has "mode" (Sim_json.Str "managed")) ~key:"promotions"
          (set (Sim_json.Num 0.0)) );
      ( "a cache record with a failed coloring audit",
        Exp_cache.schema,
        "colored leg is perfectly colored",
        doctor ~where:(has "mode" (Sim_json.Str "colored")) ~key:"audit_good" (add (-1.0)) );
      ( "a shard record with local + cross <> txns",
        Exp_shard.schema,
        "every transaction accounted",
        doctor ~where:(has "shards" (Sim_json.Num 4.0)) ~key:"local" (add 1.0) );
    ]
  in
  List.iter
    (fun (what, schema, expect, edit) ->
      let json = edit (quick_json schema) in
      check_bool (what ^ ": embedded checks still claim a pass") true
        (match Sim_json.member "checks" json with
        | Some (Sim_json.List checks) ->
            List.for_all (fun c -> Sim_json.member "pass" c = Some (Sim_json.Bool true)) checks
        | _ -> false);
      reject_doctored what ~expect:("failed check: " ^ expect) json)
    cases

let test_renders_nonempty () =
  check_bool "table1 renders" true (String.length (Exp_table1.render (Exp_table1.run ())) > 100);
  check_bool "figures render" true
    (String.length (Exp_figures.render (Exp_figures.run ())) > 100)

let () =
  Alcotest.run "experiments"
    [
      ( "tables",
        [
          Alcotest.test_case "table 1 exact" `Quick test_table1;
          Alcotest.test_case "table 2 shape" `Slow test_table2;
          Alcotest.test_case "table 3 exact" `Slow test_table3;
          Alcotest.test_case "table 4 shape (quick)" `Slow test_table4_quick;
          Alcotest.test_case "figures" `Quick test_figures;
          Alcotest.test_case "substrate stats" `Slow test_substrate_stats;
          Alcotest.test_case "ablations hold" `Slow test_ablations_hold;
          Alcotest.test_case "renders" `Quick test_renders_nonempty;
        ] );
      ( "parallel driver",
        [
          Alcotest.test_case "in-order join" `Quick test_par_in_order_join;
          Alcotest.test_case "re-raises task exceptions" `Quick test_par_reraises;
        ] );
      ( "perf record",
        [
          Alcotest.test_case "quick record validates" `Slow test_perf_record_quick;
          Alcotest.test_case "validator rejects bad records" `Slow
            test_perf_record_validator_rejects;
        ] );
      ( "validate dispatcher",
        [
          Alcotest.test_case "knows every schema" `Quick test_validate_known_schemas;
          Alcotest.test_case "dispatches every schema" `Slow test_validate_dispatches_all_schemas;
          Alcotest.test_case "rejects malformed and unknown records" `Quick test_validate_rejects;
          Alcotest.test_case "re-derives the emitted checks" `Slow
            test_validate_rederives_emitted_checks;
          Alcotest.test_case "rejects doctored records claiming a pass" `Slow
            test_validate_rejects_doctored_claims;
        ] );
    ]
