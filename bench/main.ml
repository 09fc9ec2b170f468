(* Benchmark harness.

   Two jobs, one executable:

   1. Regenerate every table and figure of the paper and print the same
      rows the paper reports (paper value alongside the measured one) —
      the reproduction itself.

   2. A Bechamel microbenchmark group with one Test.make per table (and
      one for the figures): how long the simulator takes, in wall-clock
      time, to regenerate each artifact. Useful for tracking simulator
      performance regressions.

   Run with: dune exec bench/main.exe [-- --jobs N]
   --jobs N runs the independent experiments on N OCaml domains (default:
   the recommended domain count; joined in fixed order, so the printed
   report is byte-identical to a sequential run). Set VPP_BENCH_FAST=1 to
   skip the Bechamel pass (used by CI smoke runs). *)

open Bechamel
open Toolkit

(* Minimal flag scan: Bechamel owns no CLI, so the harness takes just
   "--jobs N" (or "--jobs=N"). Without the flag, fan out over the
   detected domain count. *)
let jobs =
  let argv = Sys.argv in
  let jobs = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--jobs" && i + 1 < Array.length argv then
        jobs := Some (max 1 (int_of_string argv.(i + 1)))
      else if String.length arg > 7 && String.sub arg 0 7 = "--jobs=" then
        jobs := Some (max 1 (int_of_string (String.sub arg 7 (String.length arg - 7)))))
    argv;
  match !jobs with Some j -> j | None -> Exp_par.default_jobs ()

let line () = print_endline (String.make 78 '=')

let reproduce () =
  line ();
  print_endline "Reproduction: Harty & Cheriton, ASPLOS 1992 — all tables and figures";
  line ();
  print_string
    (Exp_par.concat ~jobs ~sep:"\n"
       [
         (fun () -> Exp_table1.render (Exp_table1.run ()));
         (fun () -> Exp_table2.render (Exp_table2.run ()));
         (fun () -> Exp_table3.render (Exp_table3.run ()));
         (fun () -> Exp_table4.render (Exp_table4.run ()));
         (fun () -> Exp_figures.render (Exp_figures.run ()));
       ]);
  print_newline ();
  line ();
  print_endline "Ablations of the design choices";
  line ();
  print_string
    (Exp_par.concat ~jobs ~sep:""
       (List.map
          (fun run () -> Exp_ablations.render (run ()) ^ "\n")
          [
            Exp_ablations.append_batch;
            Exp_ablations.delivery_mode;
            Exp_ablations.reprotect_batch;
            Exp_ablations.regeneration_crossover;
            Exp_ablations.eviction_destination;
          ]));
  print_string (Exp_substrate.render (Exp_substrate.run ()));
  print_newline ();
  line ();
  print_endline "Fault injection: seeded chaos storms on the disk paths";
  line ();
  print_string (Exp_chaos.render (Exp_chaos.run ()));
  print_newline ();
  (* The versioned records: banner, text rendering, then the record
     file. *)
  let both render emit r = (render r, emit r) in
  List.iter
    (fun (title, file, run) ->
      line ();
      print_endline title;
      line ();
      let text, record = run () in
      print_string text;
      Out_channel.with_open_text file (fun oc -> output_string oc (Exp_record.to_string record));
      Printf.printf "(machine-readable record written to %s)\n" file)
    [
      ( "Observability: Table 1 cost attribution and latency histograms",
        "BENCH_observability.json",
        fun () -> both Exp_profile.render Exp_profile.emit (Exp_profile.run ()) );
      ( "Perf: simulator throughput at scale",
        "BENCH_perf.json",
        fun () -> both Exp_scale.render Exp_scale.emit (Exp_scale.run ~jobs ()) );
      ( "Market: multi-tenant admission control at production scale",
        "BENCH_market.json",
        fun () -> both Exp_market.render Exp_market.emit (Exp_market.run ~jobs ()) );
      ( "Tier: single-tier vs tiered frame placement",
        "BENCH_tier.json",
        fun () -> both Exp_tier.render Exp_tier.emit (Exp_tier.run ~jobs ()) );
      ( "Cache: frame placement vs a physically-indexed L2",
        "BENCH_cache.json",
        fun () -> both Exp_cache.render Exp_cache.emit (Exp_cache.run ~jobs ()) );
      ( "Shard: parallel DBMS shards with two-phase commit",
        "BENCH_shard.json",
        fun () -> both Exp_shard.render Exp_shard.emit (Exp_shard.run ~jobs ()) );
    ]

(* One Test.make per table/figure. Table 4 runs in its quick (60 s
   simulated) configuration here so a Bechamel sample stays subsecond. *)
let tests =
  Test.make_grouped ~name:"paper"
    [
      Test.make ~name:"table1.primitives" (Staged.stage (fun () -> ignore (Exp_table1.run ())));
      Test.make ~name:"table2.applications" (Staged.stage (fun () -> ignore (Exp_table2.run ())));
      Test.make ~name:"table3.vm-activity" (Staged.stage (fun () -> ignore (Exp_table3.run ())));
      Test.make ~name:"table4.dbms-quick"
        (Staged.stage (fun () -> ignore (Exp_table4.run ~quick:true ())));
      Test.make ~name:"figures.protocol" (Staged.stage (fun () -> ignore (Exp_figures.run ())));
      Test.make ~name:"chaos.storms" (Staged.stage (fun () -> ignore (Exp_chaos.run ())));
      Test.make ~name:"market.small"
        (Staged.stage (fun () -> ignore (Exp_market.run ~quick:true ())));
      Test.make ~name:"tier.placement"
        (Staged.stage (fun () -> ignore (Exp_tier.run ~quick:true ())));
      Test.make ~name:"cache.coloring"
        (Staged.stage (fun () -> ignore (Exp_cache.run ~quick:true ())));
      Test.make ~name:"shard.two-phase"
        (Staged.stage (fun () -> ignore (Exp_shard.run ~quick:true ())));
    ]

let benchmark () =
  line ();
  print_endline "Bechamel: wall-clock cost of regenerating each artifact";
  line ();
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
        in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Printf.printf "%-28s %16s %8s\n" "benchmark" "time/run" "r^2";
  print_endline (String.make 54 '-');
  List.iter
    (fun (name, ns, r2) ->
      let time_str =
        if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-28s %16s %8.3f\n" name time_str r2)
    rows

let () =
  reproduce ();
  print_newline ();
  if Sys.getenv_opt "VPP_BENCH_FAST" = None then benchmark ()
  else print_endline "(VPP_BENCH_FAST set: skipping the Bechamel pass)"
