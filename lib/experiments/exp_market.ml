module J = Sim_json
module W = Wl_market
module R = Exp_record

type leg = {
  l_result : W.result;
  l_wall_s : float;
}

type result = {
  mode : string;
  jobs : int;
  legs : leg list;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let slo_ordered s =
  R.int "samples" s = 0
  || (R.num "p50_us" s <= R.num "p99_us" s && R.num "p99_us" s <= R.num "p999_us" s)

let leg_checks leg =
  let int f = R.int f leg in
  let name what = Printf.sprintf "%s: %s" (R.str "name" leg) what in
  let completed = int "completed" and refused = int "refused" and tenants = int "tenants" in
  let min_balance = R.num "min_balance" leg and billable_s = R.num "billable_s" leg in
  let sim_s = R.num "sim_us" leg /. 1_000_000.0 in
  let residual = R.num "conservation_residual" leg and slos = R.list "slos" leg in
  [
    Exp_report.check ~what:(name "frame + process conservation held") ~pass:(R.bool "conserved" leg)
      ~detail:(Printf.sprintf "%d frames, %d accounts" (int "frames") (int "accounts"));
    Exp_report.check
      ~what:(name "every tenant completed or was refused")
      ~pass:(completed + refused = tenants)
      ~detail:(Printf.sprintf "%d completed + %d refused of %d" completed refused tenants);
    Exp_report.check
      ~what:(name "admission control was exercised (deferrals occurred)")
      ~pass:(int "defer_events" > 0)
      ~detail:(Printf.sprintf "%d defer events" (int "defer_events"));
    Exp_report.check
      ~what:(name "poor tenants were refused by the market")
      ~pass:(refused > 0)
      ~detail:(Printf.sprintf "%d refused" refused);
    Exp_report.check
      ~what:(name "dram conservation: no minting or destruction")
      ~pass:(residual < 1e-9)
      ~detail:(Printf.sprintf "worst residual %.3e" residual);
    Exp_report.check
      ~what:(name "all solvent classes stayed solvent")
      ~pass:(min_balance >= 0.0)
      ~detail:(Printf.sprintf "min balance %.3f drams" min_balance);
    Exp_report.check
      ~what:(name "SLO quantiles ordered p50 <= p99 <= p999")
      ~pass:(List.for_all slo_ordered slos)
      ~detail:
        (String.concat ", "
           (List.map
              (fun s ->
                Printf.sprintf "%s %.0f/%.0f/%.0f" (R.str "class" s) (R.num "p50_us" s)
                  (R.num "p99_us" s) (R.num "p999_us" s))
              slos));
    Exp_report.check
      ~what:(name "billable time never exceeds wall time")
      ~pass:(billable_s <= sim_s +. 1e-9)
      ~detail:(Printf.sprintf "%.3fs billable of %.3fs simulated" billable_s sim_s);
  ]

let shape body =
  ignore (R.str "mode" body);
  let legs = R.list "legs" body in
  R.require (legs <> []) "expected at least one leg";
  List.iter
    (fun leg -> R.require (R.num "wall_s" leg >= 0.0) (R.str "name" leg ^ ": negative wall time"))
    legs

let schema =
  {
    R.tag = "vpp-market/1";
    shape;
    checks = (fun body -> List.concat_map leg_checks (R.list "legs" body));
  }

let run ?(quick = false) ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> Exp_par.default_jobs () in
  let configs = if quick then [ W.small ] else [ W.small; W.production ] in
  let legs =
    Exp_par.map ~jobs
      (List.map
         (fun cfg () ->
           let r, wall = timed (fun () -> W.run cfg) in
           { l_result = r; l_wall_s = wall })
         configs)
  in
  { mode = (if quick then "quick" else "full"); jobs; legs }

let slo_json s =
  J.Obj
    [
      ("class", J.Str s.W.sc_class);
      ("tenants", J.Num (float_of_int s.W.sc_tenants));
      ("completed", J.Num (float_of_int s.W.sc_completed));
      ("refused", J.Num (float_of_int s.W.sc_refused));
      ("samples", J.Num (float_of_int s.W.sc_samples));
      ("p50_us", J.Num s.W.sc_p50_us);
      ("p99_us", J.Num s.W.sc_p99_us);
      ("p999_us", J.Num s.W.sc_p999_us);
      ("max_us", J.Num s.W.sc_max_us);
      ("violations", J.Num (float_of_int s.W.sc_violations));
    ]

let body r =
  [
    ("mode", J.Str r.mode);
    ("jobs", J.Num (float_of_int r.jobs));
    ( "legs",
      J.List
        (List.map
           (fun l ->
             let w = l.l_result in
             J.Obj
               [
                 ("name", J.Str w.W.r_name);
                 ("frames", J.Num (float_of_int w.W.r_frames));
                 ("tenants", J.Num (float_of_int w.W.r_tenants));
                 ("savers", J.Num (float_of_int w.W.r_savers));
                 ("completed", J.Num (float_of_int w.W.r_completed));
                 ("refused", J.Num (float_of_int w.W.r_refused));
                 ("defer_events", J.Num (float_of_int w.W.r_defer_events));
                 ("granted_frames", J.Num (float_of_int w.W.r_granted_frames));
                 ("saver_cycles", J.Num (float_of_int w.W.r_saver_cycles));
                 ("saver_starved", J.Num (float_of_int w.W.r_saver_starved));
                 ("faults", J.Num (float_of_int w.W.r_faults));
                 ("events", J.Num (float_of_int w.W.r_events));
                 ("sim_us", J.Num w.W.r_sim_us);
                 ("slo_us", J.Num w.W.r_slo_us);
                 ("accounts", J.Num (float_of_int w.W.r_accounts));
                 ("min_balance", J.Num w.W.r_min_balance);
                 ("billable_s", J.Num w.W.r_billable_s);
                 ("conservation_residual", J.Num w.W.r_conservation_residual);
                 ("io_failures", J.Num (float_of_int w.W.r_io_failures));
                 ("conserved", J.Bool w.W.r_conserved);
                 ("wall_s", J.Num l.l_wall_s);
                 ("slos", J.List (List.map slo_json w.W.r_slos));
               ])
           r.legs) );
  ]

let emit r = R.emit schema (body r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "Market: multi-tenant admission control at scale (%s record, %s mode)\n"
       schema.R.tag r.mode);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "run"; "tenants"; "frames"; "completed"; "refused"; "defers"; "granted"; "saver cyc";
           "faults"; "sim (s)"; "wall (s)";
         ]
       ~rows:
         (List.map
            (fun l ->
              let w = l.l_result in
              [
                w.W.r_name;
                string_of_int w.W.r_tenants;
                string_of_int w.W.r_frames;
                string_of_int w.W.r_completed;
                string_of_int w.W.r_refused;
                string_of_int w.W.r_defer_events;
                string_of_int w.W.r_granted_frames;
                string_of_int w.W.r_saver_cycles;
                string_of_int w.W.r_faults;
                Printf.sprintf "%.3f" (w.W.r_sim_us /. 1_000_000.0);
                Printf.sprintf "%.2f" l.l_wall_s;
              ])
            r.legs));
  List.iter
    (fun l ->
      let w = l.l_result in
      Buffer.add_string buf
        (Printf.sprintf "\n%s: per-class SLO (acquire-to-resident, target %.0f us)\n" w.W.r_name
           w.W.r_slo_us);
      Buffer.add_string buf
        (Exp_report.fmt_table
           ~header:
             [ "class"; "tenants"; "done"; "refused"; "p50 (us)"; "p99 (us)"; "p999 (us)";
               "max (us)"; "violations" ]
           ~rows:
             (List.map
                (fun s ->
                  [
                    s.W.sc_class;
                    string_of_int s.W.sc_tenants;
                    string_of_int s.W.sc_completed;
                    string_of_int s.W.sc_refused;
                    Printf.sprintf "%.0f" s.W.sc_p50_us;
                    Printf.sprintf "%.0f" s.W.sc_p99_us;
                    Printf.sprintf "%.0f" s.W.sc_p999_us;
                    Printf.sprintf "%.0f" s.W.sc_max_us;
                    string_of_int s.W.sc_violations;
                  ])
                w.W.r_slos)))
    r.legs;
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks (emit r).R.checks);
  Buffer.contents buf
