(* Throughput record: Wl_scale at several machine sizes plus a timed
   sequential-vs-parallel run of the experiment driver.

   Wall-clock here is host time (Unix.gettimeofday), the one deliberate
   exception to the no-wall-clock rule: the whole point of this record is
   how fast the simulator executes deterministic work, so the simulated
   side of every number below is reproducible and only [wall_s] varies
   between hosts. *)

module J = Sim_json
module R = Exp_record

type scale_row = {
  s_result : Wl_scale.result;
  s_wall_s : float;
}

type stream_row = {
  t_result : Wl_scale.stream_result;
  t_wall_s : float;
}

type driver = {
  d_jobs : int;
  d_sequential_s : float;
  d_parallel_s : float;
  d_identical : bool;
}

type result = {
  mode : string;
  scales : scale_row list;
  stream : stream_row list;
  driver : driver;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let per_sec count wall = if wall > 0.0 then float_of_int count /. wall else 0.0

(* The driver leg races the same fixed, deterministic renders the [all]
   command composes; byte-identity of the joined output is the point, the
   timings are informative (on a single-core host the parallel leg just
   pays the domain overhead). *)
let driver_tasks () =
  [
    (fun () -> Exp_table1.render (Exp_table1.run ()));
    (fun () -> Exp_table3.render (Exp_table3.run ()));
    (fun () -> Exp_figures.render (Exp_figures.run ()));
  ]

let run ?(quick = false) ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> Exp_par.default_jobs () in
  let sizes =
    if quick then [ Wl_scale.size_8mb; Wl_scale.size_512mb ] else Wl_scale.standard_sizes
  in
  (* Superpage comparison: the same sequential stream at the largest size,
     once with 4 KB fills and once with whole-run grants + promotion. *)
  let stream_cfg = List.nth sizes (List.length sizes - 1) in
  (* The scale and stream legs are independent simulations, so they fan
     out over domains together; each task times itself, and the in-order
     join keeps every deterministic field identical to a sequential run
     (only the wall_s figures feel the sharing of the host's cores). *)
  let scale_tasks =
    List.map
      (fun cfg () ->
        let r, wall = timed (fun () -> Wl_scale.run cfg) in
        `Scale { s_result = r; s_wall_s = wall })
      sizes
  and stream_tasks =
    List.map
      (fun superpages () ->
        let r, wall = timed (fun () -> Wl_scale.run_stream ~superpages stream_cfg) in
        `Stream { t_result = r; t_wall_s = wall })
      [ false; true ]
  in
  let legs = Exp_par.map ~jobs (scale_tasks @ stream_tasks) in
  let scales = List.filter_map (function `Scale s -> Some s | `Stream _ -> None) legs in
  let stream = List.filter_map (function `Stream s -> Some s | `Scale _ -> None) legs in
  let seq_out, seq_s =
    timed (fun () -> String.concat "\n" (List.map (fun f -> f ()) (driver_tasks ())))
  in
  let par_out, par_s = timed (fun () -> Exp_par.concat ~jobs ~sep:"\n" (driver_tasks ())) in
  let driver =
    { d_jobs = jobs; d_sequential_s = seq_s; d_parallel_s = par_s; d_identical = seq_out = par_out }
  in
  { mode = (if quick then "quick" else "full"); scales; stream; driver }

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let scale_checks s =
  let name = R.str "name" s and int f = R.int f s in
  [
    Exp_report.check
      ~what:(Printf.sprintf "%s: frame conservation held" name)
      ~pass:(R.bool "conserved" s)
      ~detail:(Printf.sprintf "%d frames" (int "frames"));
    Exp_report.check
      ~what:(Printf.sprintf "%s: workload exercised every axis" name)
      ~pass:(int "faults" > 0 && int "migrated_pages" > 0 && int "events" > 0)
      ~detail:
        (Printf.sprintf "%d faults, %d migrated, %d events" (int "faults") (int "migrated_pages")
           (int "events"));
  ]

let checks body =
  let scales = R.list "scales" body and driver = R.obj "driver" body in
  let stream = R.list "stream" body and int = R.int in
  let leg what superpages = R.find what (fun l -> R.bool "superpages" l = superpages) stream in
  let plain = leg "4 KB stream leg" false and sp = leg "superpage stream leg" true in
  List.concat_map scale_checks scales
  @ [
      Exp_report.check ~what:"event count grows with machine size"
        ~pass:
          (let evs = List.map (int "events") scales in
           List.sort compare evs = evs && List.length (List.sort_uniq compare evs) = List.length evs)
        ~detail:(String.concat ", " (List.map (fun s -> string_of_int (int "events" s)) scales));
      Exp_report.check ~what:"parallel driver output byte-identical to sequential"
        ~pass:(R.bool "parallel_identical" driver)
        ~detail:(Printf.sprintf "%d job(s)" (int "jobs" driver));
      Exp_report.check ~what:"stream: frame conservation held on both legs"
        ~pass:(R.bool "conserved" plain && R.bool "conserved" sp)
        ~detail:(Printf.sprintf "%d frames" (int "frames" plain));
      Exp_report.check ~what:"stream: legs issued identical references"
        ~pass:
          (int "touches" plain = int "touches" sp
          && int "stream_pages" plain = int "stream_pages" sp)
        ~detail:
          (Printf.sprintf "%d touches over %d pages" (int "touches" plain)
             (int "stream_pages" plain));
      Exp_report.check ~what:"stream: superpage leg takes >= 100x fewer faults"
        ~pass:(int "faults" sp > 0 && int "faults" plain >= 100 * int "faults" sp)
        ~detail:
          (Printf.sprintf "%d vs %d faults (%.0fx)" (int "faults" plain) (int "faults" sp)
             (float_of_int (int "faults" plain) /. float_of_int (max 1 (int "faults" sp))));
      Exp_report.check ~what:"stream: superpage leg promoted and split regions"
        ~pass:
          (int "sp_promotions" sp > 0
          && int "sp_demotions" sp > 0
          && int "sp_promotions" plain = 0)
        ~detail:
          (Printf.sprintf "%d promotions, %d demotions" (int "sp_promotions" sp)
             (int "sp_demotions" sp));
    ]

let shape body =
  ignore (R.str "mode" body);
  let scales = R.list "scales" body in
  R.require (List.length scales >= 2) "expected at least two scales";
  List.iter
    (fun s -> R.require (R.num "wall_s" s >= 0.0) (R.str "name" s ^ ": negative wall time"))
    scales;
  R.require (List.length (R.list "stream" body) = 2) "expected exactly two stream legs";
  R.require (R.int "jobs" (R.obj "driver" body) >= 1) "driver jobs < 1"

let schema = { R.tag = "vpp-perf/2"; shape; checks }

let body r =
  [
    ("mode", J.Str r.mode);
    ( "scales",
      J.List
        (List.map
           (fun s ->
             let w = s.s_result in
             J.Obj
               [
                 ("name", J.Str w.Wl_scale.r_name);
                 ("memory_bytes", J.Num (float_of_int w.Wl_scale.r_memory_bytes));
                 ("frames", J.Num (float_of_int w.Wl_scale.r_frames));
                 ("touches", J.Num (float_of_int w.Wl_scale.r_touches));
                 ("faults", J.Num (float_of_int w.Wl_scale.r_faults));
                 ("migrate_calls", J.Num (float_of_int w.Wl_scale.r_migrate_calls));
                 ("migrated_pages", J.Num (float_of_int w.Wl_scale.r_migrated_pages));
                 ("events", J.Num (float_of_int w.Wl_scale.r_events));
                 ("sim_us", J.Num w.Wl_scale.r_sim_us);
                 ("conserved", J.Bool w.Wl_scale.r_conserved);
                 ("wall_s", J.Num s.s_wall_s);
                 ("events_per_s", J.Num (per_sec w.Wl_scale.r_events s.s_wall_s));
                 ("faults_per_s", J.Num (per_sec w.Wl_scale.r_faults s.s_wall_s));
                 ( "migrated_pages_per_s",
                   J.Num (per_sec w.Wl_scale.r_migrated_pages s.s_wall_s) );
               ])
           r.scales) );
    ( "stream",
      J.List
        (List.map
           (fun s ->
             let w = s.t_result in
             J.Obj
               [
                 ("name", J.Str w.Wl_scale.s_name);
                 ("superpages", J.Bool w.Wl_scale.s_superpages);
                 ("memory_bytes", J.Num (float_of_int w.Wl_scale.s_memory_bytes));
                 ("frames", J.Num (float_of_int w.Wl_scale.s_frames));
                 ("pages_per_superpage", J.Num (float_of_int w.Wl_scale.s_run));
                 ("stream_pages", J.Num (float_of_int w.Wl_scale.s_stream_pages));
                 ("touches", J.Num (float_of_int w.Wl_scale.s_touches));
                 ("faults", J.Num (float_of_int w.Wl_scale.s_faults));
                 ("migrate_calls", J.Num (float_of_int w.Wl_scale.s_migrate_calls));
                 ("migrated_pages", J.Num (float_of_int w.Wl_scale.s_migrated_pages));
                 ("sp_promotions", J.Num (float_of_int w.Wl_scale.s_sp_promotions));
                 ("sp_demotions", J.Num (float_of_int w.Wl_scale.s_sp_demotions));
                 ("events", J.Num (float_of_int w.Wl_scale.s_events));
                 ("sim_us", J.Num w.Wl_scale.s_sim_us);
                 ("conserved", J.Bool w.Wl_scale.s_conserved);
                 ("wall_s", J.Num s.t_wall_s);
               ])
           r.stream) );
    ( "driver",
      J.Obj
        [
          ("jobs", J.Num (float_of_int r.driver.d_jobs));
          ("sequential_s", J.Num r.driver.d_sequential_s);
          ("parallel_s", J.Num r.driver.d_parallel_s);
          ( "speedup",
            J.Num
              (if r.driver.d_parallel_s > 0.0 then
                 r.driver.d_sequential_s /. r.driver.d_parallel_s
               else 0.0) );
          ("parallel_identical", J.Bool r.driver.d_identical);
        ] );
  ]

let emit r = R.emit schema (body r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Perf: simulator throughput at scale (%s record, %s mode)\n" schema.R.tag
       r.mode);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [ "machine"; "frames"; "faults"; "migrated"; "events"; "wall (s)"; "events/s"; "faults/s" ]
       ~rows:
         (List.map
            (fun s ->
              let w = s.s_result in
              [
                Printf.sprintf "%s (%.0f MB)" w.Wl_scale.r_name (mb w.Wl_scale.r_memory_bytes);
                string_of_int w.Wl_scale.r_frames;
                string_of_int w.Wl_scale.r_faults;
                string_of_int w.Wl_scale.r_migrated_pages;
                string_of_int w.Wl_scale.r_events;
                Printf.sprintf "%.2f" s.s_wall_s;
                Printf.sprintf "%.0f" (per_sec w.Wl_scale.r_events s.s_wall_s);
                Printf.sprintf "%.0f" (per_sec w.Wl_scale.r_faults s.s_wall_s);
              ])
            r.scales));
  Buffer.add_string buf
    (Printf.sprintf "\nStreaming: 4 KB fills vs superpage runs (%s, %d pages/superpage)\n"
       (match r.stream with s :: _ -> s.t_result.Wl_scale.s_name | [] -> "-")
       (match r.stream with s :: _ -> s.t_result.Wl_scale.s_run | [] -> 0));
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [ "leg"; "pages"; "faults"; "migrates"; "promoted"; "split"; "sim (ms)"; "wall (s)" ]
       ~rows:
         (List.map
            (fun s ->
              let w = s.t_result in
              [
                (if w.Wl_scale.s_superpages then "superpage" else "4kb");
                string_of_int w.Wl_scale.s_stream_pages;
                string_of_int w.Wl_scale.s_faults;
                string_of_int w.Wl_scale.s_migrate_calls;
                string_of_int w.Wl_scale.s_sp_promotions;
                string_of_int w.Wl_scale.s_sp_demotions;
                Printf.sprintf "%.1f" (w.Wl_scale.s_sim_us /. 1000.0);
                Printf.sprintf "%.2f" s.t_wall_s;
              ])
            r.stream));
  Buffer.add_string buf
    (Printf.sprintf
       "\nExperiment driver: sequential %.2fs, parallel %.2fs on %d job(s) (outputs %s)\n"
       r.driver.d_sequential_s r.driver.d_parallel_s r.driver.d_jobs
       (if r.driver.d_identical then "identical" else "DIFFER"));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks (emit r).R.checks);
  Buffer.contents buf
