(* Tiered-placement record: single-tier vs tiered machines on the same
   deterministic traces (`vpp_repro tier`, the vpp-tier/1 record).

   Each workload runs three legs:

   - [flat]    — one zero-surcharge DRAM tier, a naive demand pager.
                 The baseline: what the trace costs with no tiering.
   - [static]  — a fast + slow tier machine, the same naive pager.
                 Placement is fault-order accident: frames come out of
                 the initial segment in address order, so late-faulted
                 (hot) pages land on slow frames and stay there. The
                 delta against [flat] is pure tier surcharge — the cost
                 of tiered hardware under a tier-oblivious manager.
   - [managed] — the same tiered machine under Mgr_tiered: faults land
                 on fast frames, the clock demotes cold pages down the
                 hierarchy, protection-fault sampling promotes hot ones
                 back. The record's headline check is
                 managed.sim_us < static.sim_us: application-controlled
                 placement beats oblivious placement on the same
                 hardware (the paper's §2.1 thesis, ported to tiers).

   Everything is simulated time; no wall-clock, no randomness — reruns
   are bit-identical, which the embedded checks rely on. *)

module J = Sim_json
module R = Exp_record
module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module T = Mgr_tiered
module Engine = Sim_engine

let page_size = 4096

type leg = {
  g_mode : string;  (* "flat" | "static" | "managed" *)
  g_frames : int;
  g_touches : int;
  g_faults : int;
  g_migrate_calls : int;
  g_migrated_pages : int;
  g_events : int;
  g_sim_us : float;
  g_resident_by_tier : int list;
  g_promotions : int;
  g_demotions_slow : int;
  g_demotions_compressed : int;
  g_refetches : int;
  g_conserved : bool;
}

type run_row = {
  w_name : string;
  w_fast_frames : int;
  w_slow_frames : int;
  w_pages : int;
  w_flat : leg;
  w_static : leg;
  w_managed : leg;
}

type result = { mode : string; runs : run_row list }

(* A workload is a machine shape plus a deterministic touch trace over
   one segment. *)
type workload = {
  wk_name : string;
  wk_fast_frames : int;
  wk_slow_frames : int;
  wk_pages : int;
  wk_trace : K.t -> Seg.id -> unit;
}

(* ------------------------------------------------------------------ *)
(* The two traces                                                      *)
(* ------------------------------------------------------------------ *)

(* Hot/cold working set in the Wl_scale style. Three phases:

   1. fault everything in, cold region first — under fault-order
      placement the late-faulted hot region lands on slow frames;
   2. one full re-pass — in the managed leg this is the phase change
      that promotes pages the phase-1 demotion cascade pushed down;
   3. hammer the hot region. Static placement pays the slow-tier access
      premium on every one of these touches; managed placement pays a
      bounded number of promotions and then runs at fast-DRAM speed. *)
let scale_trace ~cold ~hot ~rounds kernel seg =
  for page = 0 to cold + hot - 1 do
    K.touch kernel ~space:seg ~page ~access:Mgr.Write
  done;
  for page = 0 to cold + hot - 1 do
    K.touch kernel ~space:seg ~page ~access:Mgr.Read
  done;
  for _ = 1 to rounds do
    for page = cold to cold + hot - 1 do
      K.touch kernel ~space:seg ~page ~access:Mgr.Read
    done
  done

let scale_workload ~rounds =
  {
    wk_name = "scale";
    wk_fast_frames = 256;
    wk_slow_frames = 768;
    wk_pages = 384;
    wk_trace = scale_trace ~cold:288 ~hot:96 ~rounds;
  }

(* DBMS-flavoured trace: a full index scan warms the tree coldest-first,
   then skewed point lookups hit the last fifth of the key space. Under
   fault-order placement the root and internals (faulted first) sit on
   fast frames but the hot leaves are stuck on slow ones. *)
let btree_trace ~pages ~rounds kernel seg =
  let bt = Db_btree.create ~fanout:8 ~pages () in
  let touch_path key =
    List.iter
      (fun page -> K.touch kernel ~space:seg ~page ~access:Mgr.Read)
      (Db_btree.lookup_path bt ~key)
  in
  let keys = Db_btree.keys bt in
  for key = 0 to keys - 1 do
    touch_path key
  done;
  let hot_lo = keys * 4 / 5 in
  let hot_span = keys - hot_lo in
  for round = 0 to rounds - 1 do
    for i = 0 to 63 do
      touch_path (hot_lo + ((i + round) * 7 mod hot_span))
    done
  done

let btree_workload ~rounds =
  {
    wk_name = "btree";
    wk_fast_frames = 192;
    (* Just enough for the naive legs (fast + slow >= pages), but short of
       pages + the managed leg's pool working set — so the managed leg
       must push its coldest pages down into the compressed store. *)
    wk_slow_frames = 198;
    wk_pages = 384;
    wk_trace = btree_trace ~pages:384 ~rounds;
  }

(* ------------------------------------------------------------------ *)
(* Leg runners                                                         *)
(* ------------------------------------------------------------------ *)

(* The tier-oblivious baseline manager: one frame per missing fault,
   taken from the initial segment in address order (a monotone scan, like
   Wl_scale's capped_source). No pools, no tier awareness. *)
let naive_pager kernel =
  let init = K.initial_segment kernel in
  let next = ref 0 in
  let on_fault (fault : Mgr.fault) =
    Mgr.charge_fault_logic (K.machine kernel);
    match fault.Mgr.f_kind with
    | Mgr.Missing | Mgr.Cow_write ->
        let init_seg = K.segment kernel init in
        let len = Seg.length init_seg in
        while !next < len && (Seg.page init_seg !next).Seg.frame = None do
          incr next
        done;
        if !next >= len then failwith "Exp_tier: naive pager out of frames";
        K.migrate_pages kernel ~src:init ~dst:fault.Mgr.f_seg ~src_page:!next
          ~dst_page:fault.Mgr.f_page ~count:1
          ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
          ();
        incr next
    | Mgr.Protection ->
        K.modify_page_flags kernel ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
          ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
          ()
  in
  K.register_manager kernel ~name:"naive-pager" ~mode:`In_process ~on_fault ()

let conserved kernel machine =
  K.frame_owner_total kernel = Hw_machine.n_frames machine
  && K.frame_owner_audit kernel = K.frame_owner_audit_scan kernel
  && K.frame_owner_audit_tiered kernel = K.frame_owner_audit_tiered_scan kernel
  && Engine.live_processes machine.Hw_machine.engine = 0

let finish ~mode ~machine ~kernel ~seg ~mstats =
  let stats = K.stats kernel in
  let promotions, demotions_slow, demotions_compressed, refetches =
    match mstats with
    | None -> (0, 0, 0, 0)
    | Some (s : T.stats) ->
        (s.T.promotions, s.T.demotions_slow, s.T.demotions_compressed, s.T.refetches)
  in
  {
    g_mode = mode;
    g_frames = Hw_machine.n_frames machine;
    g_touches = stats.K.touches;
    g_faults = stats.K.faults_missing + stats.K.faults_protection + stats.K.faults_cow;
    g_migrate_calls = stats.K.migrate_calls;
    g_migrated_pages = stats.K.migrated_pages;
    g_events = Engine.events_executed machine.Hw_machine.engine;
    g_sim_us = Hw_machine.now machine;
    g_resident_by_tier = Array.to_list (Seg.resident_pages_by_tier (K.segment kernel seg));
    g_promotions = promotions;
    g_demotions_slow = demotions_slow;
    g_demotions_compressed = demotions_compressed;
    g_refetches = refetches;
    g_conserved = conserved kernel machine;
  }

let tiers_of wk =
  [
    Hw_phys_mem.dram_tier ~bytes:(wk.wk_fast_frames * page_size);
    Hw_phys_mem.slow_dram_tier ~bytes:(wk.wk_slow_frames * page_size);
  ]

(* flat / static share the naive pager; they differ only in the machine. *)
let run_plain ~mode ?tiers wk =
  let machine =
    match tiers with
    | None ->
        Hw_machine.create
          ~memory_bytes:((wk.wk_fast_frames + wk.wk_slow_frames) * page_size)
          ~page_size ()
    | Some tiers -> Hw_machine.create ~tiers ~page_size ()
  in
  let kernel = K.create machine in
  let mid = naive_pager kernel in
  let seg = K.create_segment kernel ~name:(wk.wk_name ^ "-heap") ~pages:wk.wk_pages () in
  K.set_segment_manager kernel seg mid;
  Engine.spawn machine.Hw_machine.engine (fun () -> wk.wk_trace kernel seg);
  Engine.run machine.Hw_machine.engine;
  finish ~mode ~machine ~kernel ~seg ~mstats:None

let run_managed wk =
  let machine = Hw_machine.create ~tiers:(tiers_of wk) ~page_size () in
  let kernel = K.create machine in
  let mgr = T.create kernel ~fast_pool_capacity:32 ~slow_pool_capacity:32 () in
  let seg = T.create_segment mgr ~name:(wk.wk_name ^ "-heap") ~pages:wk.wk_pages () in
  Engine.spawn machine.Hw_machine.engine (fun () -> wk.wk_trace kernel seg);
  Engine.run machine.Hw_machine.engine;
  finish ~mode:"managed" ~machine ~kernel ~seg ~mstats:(Some (T.stats mgr))

(* Each workload's three legs are independent deterministic simulations,
   so with --jobs they fan out over domains; the in-order join keeps the
   assembled record identical to a sequential run. *)
let run_workloads ~jobs wks =
  let legs =
    List.concat_map
      (fun wk ->
        [
          (fun () -> run_plain ~mode:"flat" wk);
          (fun () -> run_plain ~mode:"static" ~tiers:(tiers_of wk) wk);
          (fun () -> run_managed wk);
        ])
      wks
  in
  let results = Exp_par.map ~jobs legs in
  List.mapi
    (fun i wk ->
      {
        w_name = wk.wk_name;
        w_fast_frames = wk.wk_fast_frames;
        w_slow_frames = wk.wk_slow_frames;
        w_pages = wk.wk_pages;
        w_flat = List.nth results (3 * i);
        w_static = List.nth results ((3 * i) + 1);
        w_managed = List.nth results ((3 * i) + 2);
      })
    wks

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

(* Only the btree machine is short enough of frames to force the managed
   leg into the compressed store (see [btree_workload]). *)
let expects_compressed name = name = "btree"

let run_checks run =
  let n = R.str "name" run in
  let flat = R.obj "flat" run and static = R.obj "static" run and managed = R.obj "managed" run in
  let sim_us = R.num "sim_us" in
  [
    Exp_report.check
      ~what:(Printf.sprintf "%s: per-tier frame conservation held in all legs" n)
      ~pass:(R.bool "conserved" flat && R.bool "conserved" static && R.bool "conserved" managed)
      ~detail:(Printf.sprintf "%d frames" (R.int "frames" static));
    Exp_report.check
      ~what:(Printf.sprintf "%s: flat and static legs ran the identical trace" n)
      ~pass:
        (R.int "touches" flat = R.int "touches" static
        && R.int "faults" flat = R.int "faults" static)
      ~detail:
        (Printf.sprintf "%d touches, %d faults" (R.int "touches" static) (R.int "faults" static));
    Exp_report.check
      ~what:(Printf.sprintf "%s: tier surcharges are measurable (static > flat)" n)
      ~pass:(sim_us static > sim_us flat)
      ~detail:
        (Printf.sprintf "+%.0f us (%.0f vs %.0f)"
           (sim_us static -. sim_us flat)
           (sim_us static) (sim_us flat));
    Exp_report.check
      ~what:(Printf.sprintf "%s: managed placement beats static (managed < static)" n)
      ~pass:(sim_us managed < sim_us static)
      ~detail:
        (Printf.sprintf "%.0f vs %.0f us (saves %.0f)" (sim_us managed) (sim_us static)
           (sim_us static -. sim_us managed));
    Exp_report.check
      ~what:(Printf.sprintf "%s: manager exercised promotion and demotion" n)
      ~pass:
        (R.int "promotions" managed > 0
        && R.int "demotions_slow" managed > 0
        && ((not (expects_compressed n)) || R.int "demotions_compressed" managed > 0))
      ~detail:
        (Printf.sprintf "%d promoted, %d demoted, %d compressed, %d refetched"
           (R.int "promotions" managed) (R.int "demotions_slow" managed)
           (R.int "demotions_compressed" managed) (R.int "refetches" managed));
  ]

let shape body =
  ignore (R.str "mode" body);
  let runs = R.list "runs" body in
  R.require (runs <> []) "expected at least one run";
  List.iter
    (fun run ->
      List.iter
        (fun mode -> R.require (R.num "sim_us" (R.obj mode run) > 0.0) (mode ^ ": empty leg"))
        [ "flat"; "static"; "managed" ])
    runs

let schema =
  {
    R.tag = "vpp-tier/1";
    shape;
    checks = (fun body -> List.concat_map run_checks (R.list "runs" body));
  }

let run ?(quick = false) ?(jobs = 1) () =
  let rounds = 1500 in
  let workloads =
    if quick then [ scale_workload ~rounds ]
    else [ scale_workload ~rounds; btree_workload ~rounds:1200 ]
  in
  { mode = (if quick then "quick" else "full"); runs = run_workloads ~jobs workloads }

let leg_json g =
  J.Obj
    [
      ("mode", J.Str g.g_mode);
      ("frames", J.Num (float_of_int g.g_frames));
      ("touches", J.Num (float_of_int g.g_touches));
      ("faults", J.Num (float_of_int g.g_faults));
      ("migrate_calls", J.Num (float_of_int g.g_migrate_calls));
      ("migrated_pages", J.Num (float_of_int g.g_migrated_pages));
      ("events", J.Num (float_of_int g.g_events));
      ("sim_us", J.Num g.g_sim_us);
      ("resident_by_tier", J.List (List.map (fun n -> J.Num (float_of_int n)) g.g_resident_by_tier));
      ("promotions", J.Num (float_of_int g.g_promotions));
      ("demotions_slow", J.Num (float_of_int g.g_demotions_slow));
      ("demotions_compressed", J.Num (float_of_int g.g_demotions_compressed));
      ("refetches", J.Num (float_of_int g.g_refetches));
      ("conserved", J.Bool g.g_conserved);
    ]

let body r =
  [
    ("mode", J.Str r.mode);
    ( "runs",
      J.List
        (List.map
           (fun row ->
             J.Obj
               [
                 ("name", J.Str row.w_name);
                 ("fast_frames", J.Num (float_of_int row.w_fast_frames));
                 ("slow_frames", J.Num (float_of_int row.w_slow_frames));
                 ("pages", J.Num (float_of_int row.w_pages));
                 ("flat", leg_json row.w_flat);
                 ("static", leg_json row.w_static);
                 ("managed", leg_json row.w_managed);
               ])
           r.runs) );
  ]

let emit r = R.emit schema (body r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Tier: single-tier vs tiered placement (%s record, %s mode)\n" schema.R.tag
       r.mode);
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s (%d pages; fast %d + slow %d frames)\n" row.w_name row.w_pages
           row.w_fast_frames row.w_slow_frames);
      Buffer.add_string buf
        (Exp_report.fmt_table
           ~header:
             [
               "leg"; "faults"; "migrated"; "sim (us)"; "resident/tier"; "promote"; "demote";
               "compress";
             ]
           ~rows:
             (List.map
                (fun g ->
                  [
                    g.g_mode;
                    string_of_int g.g_faults;
                    string_of_int g.g_migrated_pages;
                    Printf.sprintf "%.0f" g.g_sim_us;
                    String.concat "/" (List.map string_of_int g.g_resident_by_tier);
                    string_of_int g.g_promotions;
                    string_of_int g.g_demotions_slow;
                    string_of_int g.g_demotions_compressed;
                  ])
                [ row.w_flat; row.w_static; row.w_managed ])))
    r.runs;
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks (emit r).R.checks);
  Buffer.contents buf
