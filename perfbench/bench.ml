(* Benchmark executable: one rep of one workload per process.

     bench.exe run --workload W --seed N [--quick] [--traced]
     bench.exe library --workload W --seed N [--quick]

   [run] builds the workload's world [setups] times, timing each build
   (all but the last are discarded), runs the last one with the engine's
   wall time measured, checks its outputs and prints one JSON line.
   [library] runs the workload's library counterpart and prints the
   outputs the workload must reproduce. perfbench/run.py orchestrates
   reps and aggregates them. *)

module C = Pb_common
module T = Pb_trace

module type WORKLOAD = sig
  type world

  val setups : int
  val setup : C.scale -> seed:int -> world
  val machine : world -> Hw_machine.t
  val spawn : world -> unit
  val outcome : world -> C.outcome
  val library : C.scale -> seed:int -> (string * float) list
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("debitcredit", (module Pb_dc));
    ("market", (module Pb_market));
  ]

(* --- minimal JSON emitter (floats keep all their digits) --- *)

let json_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_num b x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.bprintf b "%.0f" x
  else if Float.is_finite x then Printf.bprintf b "%.17g" x
  else Buffer.add_string b "null"

let json_obj b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char b ',';
      json_str b k;
      Buffer.add_char b ':';
      emit b)
    fields;
  Buffer.add_char b '}'

let json_list b emit xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      emit b x)
    xs;
  Buffer.add_char b ']'

let num x b = json_num b x
let nums kvs b = json_obj b (List.map (fun (k, v) -> (k, num v)) kvs)

(* --- one rep --- *)

(* Charged simulated µs per top-level cost label ("kernel/trap",
   "mgr/fault_logic", ...), whatever span path they were charged under. *)
let charged_by_label m =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (path, _, us) ->
      let parts = String.split_on_char '/' path in
      let label =
        match List.rev parts with
        | l :: layer :: _ -> layer ^ "/" ^ l
        | [ l ] -> l
        | [] -> path
      in
      Hashtbl.replace tbl label (us +. Option.value ~default:0.0 (Hashtbl.find_opt tbl label)))
    (Sim_metrics.charges (Hw_machine.metrics m));
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let span_table () =
  List.init T.n_spans (fun i ->
      let n = T.count.(i) in
      let per x = if n = 0 then 0.0 else x /. float_of_int n in
      ( T.names.(i),
        fun b ->
          json_obj b
            [
              ("count", num (float_of_int n));
              ("host_self_ns", num (per (float_of_int T.self_ns.(i))));
              ("sim_us", num (per T.sim_incl.(i)));
              ("alloc_words", num (per T.self_words.(i)));
            ] ))

let run_rep (module D : WORKLOAD) ~name ~scale ~seed ~traced =
  let time_setup () =
    let t0 = T.host_now () in
    let w = D.setup scale ~seed in
    (w, float_of_int (T.host_now () - t0) /. 1e9)
  in
  let setup_s = ref [] in
  for _ = 2 to D.setups do
    let _, s = time_setup () in
    setup_s := s :: !setup_s;
    Gc.full_major ()
  done;
  let w, s = time_setup () in
  setup_s := List.rev (s :: !setup_s);
  let m = D.machine w in
  let engine = m.Hw_machine.engine in
  T.on := traced;
  T.reset ();
  if traced then Hw_machine.set_profiling m true;
  let host_s =
    T.run_engine
      ~sim_now:(fun () -> Sim_engine.now engine)
      (fun () ->
        D.spawn w;
        Sim_engine.run engine)
  in
  T.on := false;
  let o = D.outcome w in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let trace_checks =
    if not traced then []
    else
      let sum_ns = Array.fold_left ( + ) 0 T.self_ns in
      let sum_s = float_of_int sum_ns /. 1e9 in
      [
        C.check "span host self-times sum to host_s"
          (Float.abs (sum_s -. host_s) <= 0.01 *. host_s)
          (Printf.sprintf "%.6f s of %.6f s" sum_s host_s);
      ]
  in
  let checks = o.C.checks @ trace_checks in
  let b = Buffer.create 4096 in
  let check_json b (c : C.check) =
    json_obj b
      [
        ("what", fun b -> json_str b c.C.what);
        ("pass", fun b -> Buffer.add_string b (string_of_bool c.C.pass));
        ("detail", fun b -> json_str b c.C.detail);
      ]
  in
  let lat_json b (l : C.lat) =
    json_obj b
      [
        ("name", fun b -> json_str b l.C.l_name);
        ("value", num l.C.l_value);
        ("unit", fun b -> json_str b l.C.l_unit);
        ("n", num (float_of_int l.C.l_n));
      ]
  in
  json_obj b
    ([
       ("workload", fun b -> json_str b name);
       ("seed", num (float_of_int seed));
       ("scale", fun b -> json_str b (match scale with C.Full -> "full" | C.Quick -> "quick"));
       ("traced", fun b -> Buffer.add_string b (string_of_bool traced));
       ("setup_s", fun b -> json_list b json_num !setup_s);
       ("host_s", num host_s);
       ("laps", fun b -> json_list b json_num (T.lap_seconds ()));
       ("events", num (float_of_int (Sim_engine.events_executed engine)));
       ("peak_heap_mb", num peak_heap_mb);
       ("attempted", num (float_of_int o.C.attempted));
       ("failed", num (float_of_int o.C.failed));
       ("lats", fun b -> json_list b lat_json o.C.lats);
       ("sim", nums (o.C.sim @ List.map (fun l -> (l.C.l_name, l.C.l_value)) o.C.lats));
       ("counters", nums o.C.counters);
       ("checks", fun b -> json_list b check_json checks);
     ]
    @
    if traced then
      [
        ("spans", fun b -> json_obj b (span_table ()));
        ("charged", nums (charged_by_label m));
      ]
    else []);
  print_endline (Buffer.contents b);
  if not (List.for_all (fun c -> c.C.pass) checks) then begin
    List.iter
      (fun c -> if not c.C.pass then Printf.eprintf "check failed: %s (%s)\n" c.C.what c.C.detail)
      checks;
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let flag key = List.mem key args in
  let usage () =
    prerr_endline
      "usage: bench.exe (run|library) --workload W --seed N [--quick] [--traced]";
    exit 2
  in
  let cmd = match args with c :: _ -> c | [] -> usage () in
  let name = match opt "--workload" args with Some w -> w | None -> usage () in
  let workload =
    match List.assoc_opt name workloads with
    | Some d -> d
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  let seed = match opt "--seed" args with Some s -> int_of_string s | None -> usage () in
  let scale = if flag "--quick" then C.Quick else C.Full in
  match cmd with
  | "run" ->
      run_rep workload ~name ~scale ~seed ~traced:(flag "--traced")
  | "library" ->
      let (module D : WORKLOAD) = workload in
      let b = Buffer.create 256 in
      json_obj b [ ("pins", nums (D.library scale ~seed)) ];
      print_endline (Buffer.contents b)
  | _ -> usage ()
