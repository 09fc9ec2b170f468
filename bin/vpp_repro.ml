(* Command-line driver: regenerate each table and figure of the paper. *)

open Cmdliner

let run_table1 () = print_string (Exp_table1.render (Exp_table1.run ()))
let run_table2 () = print_string (Exp_table2.render (Exp_table2.run ()))
let run_table3 () = print_string (Exp_table3.render (Exp_table3.run ()))

let run_table4 quick () = print_string (Exp_table4.render (Exp_table4.run ~quick ()))

let run_figures () = print_string (Exp_figures.render (Exp_figures.run ()))

let run_stats () = print_string (Exp_substrate.render (Exp_substrate.run ()))

let run_chaos seed () = print_string (Exp_chaos.render (Exp_chaos.run ?seed ()))

let run_profile json () =
  let r = Exp_profile.run () in
  print_string (if json then Exp_record.to_string (Exp_profile.emit r) else Exp_profile.render r)

(* The ablations and the [all] group are independent deterministic
   experiments; with --jobs they fan out over domains via Exp_par, whose
   in-order join keeps the printed bytes identical to a sequential run. *)

let run_ablations jobs () =
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
          ]))

let run_all quick jobs () =
  print_string
    (Exp_par.concat ~jobs ~sep:"\n"
       [
         (fun () -> Exp_table1.render (Exp_table1.run ()));
         (fun () -> Exp_table2.render (Exp_table2.run ()));
         (fun () -> Exp_table3.render (Exp_table3.run ()));
         (fun () -> Exp_table4.render (Exp_table4.run ~quick ()));
         (fun () -> Exp_figures.render (Exp_figures.run ()));
       ])

(* Every record command is the same shell over its experiment module:
   run, emit the record (its checks evaluated on the body), write it to
   --out, print the record or the text rendering, and gate the exit status
   on the checks. *)
module type RECORD = sig
  type result

  val schema : Exp_record.schema
  val run : ?quick:bool -> ?jobs:int -> unit -> result
  val emit : result -> Exp_record.t
  val render : result -> string
end

let run_record (module M : RECORD) quick json jobs out () =
  let r = M.run ~quick ?jobs () in
  let record = M.emit r in
  let text = Exp_record.to_string record in
  Out_channel.with_open_text out (fun oc -> output_string oc text);
  if json then print_string text
  else begin
    print_string (M.render r);
    Printf.printf "(machine-readable record written to %s)\n" out
  end;
  if not (Exp_report.all_pass record.Exp_record.checks) then exit 1

(* Schema dispatch lives in Exp_validate (one Exp_record schema per
   record, keyed by the record's own "schema" tag); this is just the
   file-and-exit-status shell around it. *)
let run_validate file () =
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  in
  match Exp_validate.validate_string contents with
  | Ok tag -> Printf.printf "%s: valid %s record\n" file tag
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shorten the Table 4 simulation (60s instead of 300s).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the versioned machine-readable record instead of the text rendering.")

let seed_opt =
  Arg.(
    value
    & opt (some int64) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed (same seed, same storm).")

let jobs_opt =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent experiments on $(docv) OCaml domains. Output is joined in fixed \
           order, so it is byte-identical to a sequential run.")

let perf_jobs_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domain count for the perf record's driver leg (default: the recommended domain \
           count).")

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Record to validate.")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

(* [jobs] is [perf_jobs_opt] (perf and market: default the detected
   domain count) or [one_job] (tier, cache and shard: default 1). *)
let record_cmd name doc (module M : RECORD) ~jobs ~out =
  let out_opt =
    Arg.(
      value & opt string out
      & info [ "out" ] ~docv:"FILE"
          ~doc:(Printf.sprintf "Where to write the %s record." M.schema.Exp_record.tag))
  in
  cmd name doc
    Term.(const (run_record (module M)) $ quick_flag $ json_flag $ jobs $ out_opt $ const ())

let one_job = Term.(const Option.some $ jobs_opt)

let () =
  let cmds =
    [
      cmd "table1" "System primitive times (Table 1)" Term.(const run_table1 $ const ());
      cmd "table2" "Application elapsed times (Table 2)" Term.(const run_table2 $ const ());
      cmd "table3" "VM system activity and costs (Table 3)" Term.(const run_table3 $ const ());
      cmd "table4" "DBMS transaction response times (Table 4)"
        Term.(const run_table4 $ quick_flag $ const ());
      cmd "figures" "Figures 1 and 2 as live kernel-state dumps"
        Term.(const run_figures $ const ());
      cmd "ablate" "Ablations of the design choices (batching, delivery mode, crossover)"
        Term.(const run_ablations $ jobs_opt $ const ());
      cmd "stats" "Translation-substrate statistics (mapping hash, TLB) for the Table 2 runs"
        Term.(const run_stats $ const ());
      cmd "chaos" "Seeded fault-injection storms on the disk/manager paths (not a paper table)"
        Term.(const run_chaos $ seed_opt $ const ());
      cmd "profile"
        "Cost attribution for the Table 1 paths plus latency histograms (not a paper table)"
        Term.(const run_profile $ json_flag $ const ());
      record_cmd "perf"
        "Simulator throughput at 8 MB/512 MB/4 GB machine sizes, the 4 KB-vs-superpage \
         streaming legs and the parallel-driver timing (the vpp-perf/2 record; not a paper \
         table)"
        (module Exp_scale) ~jobs:perf_jobs_opt ~out:"BENCH_perf.json";
      record_cmd "market"
        "Multi-tenant memory market at production scale: admission control, lazy settlement \
         and per-class SLOs (the vpp-market/1 record; not a paper table)"
        (module Exp_market) ~jobs:perf_jobs_opt ~out:"BENCH_market.json";
      record_cmd "tier"
        "Single-tier vs tiered frame placement: a tier-oblivious pager against Mgr_tiered's \
         hot/cold migration on the same traces (the vpp-tier/1 record; not a paper table)"
        (module Exp_tier) ~jobs:one_job ~out:"BENCH_tier.json";
      record_cmd "cache"
        "Frame placement vs a physically-indexed cache: the same trace under sequential, random \
         and page-colored placement (the vpp-cache/1 record; not a paper table)"
        (module Exp_cache) ~jobs:one_job ~out:"BENCH_cache.json";
      record_cmd "shard"
        "Sharded DBMS throughput: the same transactions over 1/4/8 parallel shards with \
         two-phase commit on the cross-shard fraction (the vpp-shard/1 record; not a paper \
         table)"
        (module Exp_shard) ~jobs:one_job ~out:"BENCH_shard.json";
      cmd "validate"
        (Printf.sprintf
           "Validate any versioned record (%s), dispatching on its embedded schema tag"
           (String.concat ", " Exp_validate.known_schemas))
        Term.(const run_validate $ file_arg $ const ());
      cmd "all" "Every table and figure" Term.(const run_all $ quick_flag $ jobs_opt $ const ());
    ]
  in
  let info =
    Cmd.info "vpp_repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Application-Controlled Physical Memory using External Page-Cache \
         Management' (Harty & Cheriton, ASPLOS 1992)"
  in
  exit
    (Cmd.eval (Cmd.group info ~default:Term.(const run_all $ quick_flag $ jobs_opt $ const ()) cmds))
