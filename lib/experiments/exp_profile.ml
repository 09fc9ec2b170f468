module K = Epcm_kernel
module Engine = Sim_engine
module Seg = Epcm_segment
module Metrics = Sim_metrics
module J = Sim_json
module R = Exp_record

type row = {
  p_label : string;
  p_pinned_us : float;
  p_measured_us : float;
  p_spans : (string * int * float) list;
}

type result = {
  rows : row list;
  latency : (string * Metrics.Hist.t) list;
}

let span_sum row = List.fold_left (fun acc (_, _, us) -> acc +. us) 0.0 row.p_spans

(* ------------------------------------------------------------------ *)
(* Table 1 paths, re-run with profiling on                             *)
(* ------------------------------------------------------------------ *)

let timed machine f =
  let result = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      f ();
      result := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  !result

(* Same harnesses as Exp_table1: a V++ kernel with a warm in-/out-of-process
   manager pool, and a plain Ultrix UVM. Setup runs unprofiled; profiling is
   switched on (and the sink reset) only around the measured operation, so
   the recorded spans decompose exactly the pinned identity. *)
let vpp_setup ~mode () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let kernel = K.create machine in
  let init = K.initial_segment kernel in
  let next = ref 0 in
  let source ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    while !granted < count && !next < Seg.length init_seg do
      (if (Seg.page init_seg !next).Seg.frame <> None then begin
         K.migrate_pages kernel ~src:init ~dst ~src_page:!next ~dst_page:(dst_page + !granted)
           ~count:1 ();
         incr granted
       end);
      incr next
    done;
    !granted
  in
  let backing = Mgr_backing.memory () in
  let gen = Mgr_generic.create kernel ~name:"profile-mgr" ~mode ~backing ~source () in
  let seg =
    Mgr_generic.create_segment gen ~name:"profile-heap" ~pages:64 ~kind:Mgr_generic.Anon ()
  in
  Mgr_generic.ensure_pool gen ~count:16;
  (machine, kernel, seg)

let ultrix_setup () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let uvm = Uvm.create machine in
  let pid = Uvm.create_process uvm ~name:"profile" in
  (machine, uvm, pid)

let profile ~label ~pinned ~machine op =
  let m = Hw_machine.metrics machine in
  Hw_machine.set_profiling machine true;
  Metrics.reset m;
  let measured = timed machine op in
  { p_label = label; p_pinned_us = pinned; p_measured_us = measured; p_spans = Metrics.charges m }

let table1_rows () =
  let c = Hw_cost.decstation_5000_200 in
  let vpp_fault ~mode ~label ~pinned =
    let machine, kernel, seg = vpp_setup ~mode () in
    profile ~label ~pinned ~machine (fun () ->
        K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write)
  in
  let vpp_uio access ~label ~pinned =
    let machine, kernel, seg = vpp_setup ~mode:`In_process () in
    K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write;
    profile ~label ~pinned ~machine (fun () ->
        match access with
        | `Read -> ignore (K.uio_read kernel ~seg ~page:0)
        | `Write -> K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "profile"))
  in
  let ultrix_fault ~label ~pinned =
    let machine, uvm, pid = ultrix_setup () in
    profile ~label ~pinned ~machine (fun () -> Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write)
  in
  let ultrix_reprotect ~label ~pinned =
    let machine, uvm, pid = ultrix_setup () in
    Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write;
    Uvm.protect uvm pid ~vpn:0;
    profile ~label ~pinned ~machine (fun () -> Uvm.touch_protected uvm pid ~vpn:0)
  in
  let ultrix_io access ~label ~pinned =
    let machine, uvm, _ = ultrix_setup () in
    let fd = Uvm.open_file uvm ~file_id:1 ~size_kb:64 in
    Uvm.preload uvm fd;
    profile ~label ~pinned ~machine (fun () ->
        match access with
        | `Read -> Uvm.read uvm fd ~offset_kb:0 ~kb:4
        | `Write -> Uvm.write uvm fd ~offset_kb:0 ~kb:4)
  in
  [
    vpp_fault ~mode:`In_process ~label:"vpp_minimal_fault_in_process"
      ~pinned:(Hw_cost.vpp_minimal_fault_in_process c);
    vpp_fault ~mode:`Separate_process ~label:"vpp_minimal_fault_via_manager"
      ~pinned:(Hw_cost.vpp_minimal_fault_via_manager c);
    ultrix_fault ~label:"ultrix_minimal_fault" ~pinned:(Hw_cost.ultrix_minimal_fault c);
    ultrix_reprotect ~label:"ultrix_user_reprotect_fault"
      ~pinned:(Hw_cost.ultrix_user_reprotect_fault c);
    vpp_uio `Read ~label:"vpp_read_4kb" ~pinned:(Hw_cost.vpp_read_4kb c);
    vpp_uio `Write ~label:"vpp_write_4kb" ~pinned:(Hw_cost.vpp_write_4kb c);
    ultrix_io `Read ~label:"ultrix_read_4kb" ~pinned:(Hw_cost.ultrix_read_4kb c);
    ultrix_io `Write ~label:"ultrix_write_4kb" ~pinned:(Hw_cost.ultrix_write_4kb c);
  ]

(* ------------------------------------------------------------------ *)
(* Latency histograms from a deterministic demand-paging workload      *)
(* ------------------------------------------------------------------ *)

(* Cold file-backed faults (disk reads through the backing store),
   protection faults, UIO traffic and WAL group commits: enough to
   populate every operation kind the instrumentation knows about, with no
   randomness anywhere. *)
let latency_workload () =
  let machine = Hw_machine.create ~memory_bytes:(1024 * 1024) () in
  let kernel = K.create machine in
  let init = K.initial_segment kernel in
  let next = ref 0 in
  let source ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    while !granted < count && !next < Seg.length init_seg do
      (if (Seg.page init_seg !next).Seg.frame <> None then begin
         K.migrate_pages kernel ~src:init ~dst ~src_page:!next ~dst_page:(dst_page + !granted)
           ~count:1 ();
         incr granted
       end);
      incr next
    done;
    !granted
  in
  let backing =
    Mgr_backing.disk machine.Hw_machine.disk ~page_bytes:(Hw_machine.page_size machine)
  in
  let gen = Mgr_generic.create kernel ~name:"profile-paging" ~mode:`In_process ~backing ~source () in
  let seg =
    Mgr_generic.create_segment gen ~name:"profile-file" ~pages:24
      ~kind:(Mgr_generic.File { file_id = 7 }) ~high_water:24 ()
  in
  let wal = Db_wal.create machine.Hw_machine.disk () in
  Hw_machine.set_profiling machine true;
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* Cold faults: each fills from the backing disk. *)
      for page = 0 to 23 do
        K.touch kernel ~space:seg ~page ~access:Epcm_manager.Read
      done;
      (* Protection faults: reprotect a window, then re-touch it. *)
      K.modify_page_flags kernel ~seg ~page:0 ~count:8 ~set_flags:Epcm_flags.no_access ();
      for page = 0 to 7 do
        K.touch kernel ~space:seg ~page ~access:Epcm_manager.Read
      done;
      (* UIO traffic over resident pages. *)
      for page = 0 to 7 do
        ignore (K.uio_read kernel ~seg ~page)
      done;
      K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "profile");
      (* WAL group commits of growing batch sizes. *)
      for batch = 1 to 6 do
        for _ = 1 to batch do
          ignore (Db_wal.append wal)
        done;
        Db_wal.commit wal ~lsn:(Db_wal.appended wal)
      done);
  Engine.run machine.Hw_machine.engine;
  let m = Hw_machine.metrics machine in
  List.filter_map
    (fun kind -> Option.map (fun h -> (kind, h)) (Metrics.hist m ~kind))
    (Metrics.kinds m)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let run () =
  let rows = table1_rows () in
  let latency = latency_workload () in
  { rows; latency }

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let row_checks row =
  let label = R.str "row" row and pinned = R.num "pinned_us" row in
  let measured = R.num "measured_us" row in
  let sum = List.fold_left (fun acc span -> acc +. R.num "us" span) 0.0 (R.list "spans" row) in
  [
    Exp_report.check
      ~what:(Printf.sprintf "%s spans sum to the pinned identity" label)
      ~pass:(Float.abs (sum -. pinned) < 1e-6)
      ~detail:(Printf.sprintf "sum %.1f us, pinned %.1f us" sum pinned);
    Exp_report.check
      ~what:(Printf.sprintf "%s measured time equals the pinned identity" label)
      ~pass:(Float.abs (measured -. pinned) < 1e-6)
      ~detail:(Printf.sprintf "measured %.1f us, pinned %.1f us" measured pinned);
  ]

let checks body =
  let latency = R.list "latency" body in
  let kinds = List.map (R.str "kind") latency in
  List.concat_map row_checks (R.list "table1_decomposition" body)
  @ [
      Exp_report.check ~what:"paging workload populates fault and disk histograms"
        ~pass:
          (List.for_all
             (fun kind -> List.mem kind kinds)
             [ "kernel.fault"; "disk.read"; "disk.write"; "backing.read"; "wal.flush" ])
        ~detail:(String.concat ", " kinds);
      Exp_report.check ~what:"histogram quantiles are ordered p50 <= p95 <= p99 <= max"
        ~pass:
          (List.for_all
             (fun h ->
               let q name = R.num name h in
               q "p50_us" <= q "p95_us" && q "p95_us" <= q "p99_us" && q "p99_us" <= q "max_us")
             latency)
        ~detail:(Printf.sprintf "%d kinds" (List.length latency));
    ]

let shape body =
  let rows = R.list "table1_decomposition" body in
  R.require (List.length rows = 8) "expected 8 table-1 rows";
  List.iter (fun row -> List.iter (fun span -> ignore (R.str "path" span)) (R.list "spans" row)) rows;
  List.iter (fun h -> ignore (R.num "count" h)) (R.list "latency" body)

let schema = { R.tag = "vpp-profile/1"; shape; checks }

let body r =
  [
    ( "table1_decomposition",
      J.List
        (List.map
           (fun row ->
             J.Obj
               [
                 ("row", J.Str row.p_label);
                 ("pinned_us", J.Num row.p_pinned_us);
                 ("measured_us", J.Num row.p_measured_us);
                 ("span_sum_us", J.Num (span_sum row));
                 ( "spans",
                   J.List
                     (List.map
                        (fun (path, n, us) ->
                          J.Obj
                            [
                              ("path", J.Str path);
                              ("count", J.Num (float_of_int n));
                              ("us", J.Num us);
                            ])
                        row.p_spans) );
               ])
           r.rows) );
    ( "latency",
      J.List
        (List.map
           (fun (kind, h) ->
             match Metrics.hist_to_json h with
             | J.Obj fields -> J.Obj (("kind", J.Str kind) :: fields)
             | other -> other)
           r.latency) );
  ]

let emit r = R.emit schema (body r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Profile: Table 1 cost attribution (microseconds)\n";
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s: pinned %.1f, measured %.1f, span sum %.1f\n" row.p_label
           row.p_pinned_us row.p_measured_us (span_sum row));
      List.iter
        (fun (path, n, us) ->
          Buffer.add_string buf (Printf.sprintf "  %-44s %3dx %8.1f us\n" path n us))
        row.p_spans)
    r.rows;
  Buffer.add_string buf "\nLatency histograms (deterministic paging workload):\n";
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:[ "kind"; "count"; "p50 (us)"; "p95 (us)"; "p99 (us)"; "max (us)" ]
       ~rows:
         (List.map
            (fun (kind, h) ->
              [
                kind;
                string_of_int (Metrics.Hist.count h);
                Exp_report.us (Metrics.Hist.p50 h);
                Exp_report.us (Metrics.Hist.p95 h);
                Exp_report.us (Metrics.Hist.p99 h);
                Exp_report.us (Metrics.Hist.max_value h);
              ])
            r.latency));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks (emit r).R.checks);
  Buffer.contents buf
