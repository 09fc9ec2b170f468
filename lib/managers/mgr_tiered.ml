module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module Phys = Hw_phys_mem

type stats = {
  mutable fills : int;
  mutable refetches : int;
  mutable promotions : int;
  mutable demotions_slow : int;
  mutable demotions_compressed : int;
  mutable protection_clears : int;
  mutable cow_fills : int;
  mutable sp_fills : int;
}

let fresh_stats () =
  {
    fills = 0;
    refetches = 0;
    promotions = 0;
    demotions_slow = 0;
    demotions_compressed = 0;
    protection_clears = 0;
    cow_fills = 0;
    sp_fills = 0;
  }

type t = {
  kern : K.t;
  name : string;
  mutable mid : Mgr.id;
  fast_tier : int;
  slow_tier : int;
  fast_pool : Mgr_free_pages.t;  (* tier-pure: fast frames only *)
  slow_pool : Mgr_free_pages.t;  (* tier-pure: slow frames only *)
  compressed : Mgr_compressed.t;  (* the coldest tier, via stash/fetch *)
  (* One second-chance clock per tier: a page whose frame left the
     clock's tier (promoted or demoted by the other ring) counts as gone. *)
  fast_clock : Mgr_clock.t;
  slow_clock : Mgr_clock.t;
  refill_batch : int;
  reclaim_batch : int;
  segs : (Seg.id, bool) Hashtbl.t;  (* value: segment opted into superpages *)
  mutable sp_segs : int;  (* opted-in segments — 0 keeps fault paths byte-identical *)
  mutable sp_cursor : int;  (* next start frame for aligned-run searches *)
  stats : stats;
  (* Same discipline as Mgr_generic: one fault at a time — tier moves are
     multi-step (read data, put_from, set_next_data, take_to) and would
     interleave across processes otherwise. *)
  serving : Sim_sync.Semaphore.t;
}

let kernel t = t.kern
let manager_id t = t.mid
let stats t = t.stats
let compressed t = t.compressed
let fast_tier t = t.fast_tier
let slow_tier t = t.slow_tier

let frame_data t frame =
  (Phys.frame (K.machine t.kern).Hw_machine.mem frame).Phys.data

(* ------------------------------------------------------------------ *)
(* Frame supply                                                       *)
(* ------------------------------------------------------------------ *)

(* Pull free frames of [tier] straight from the kernel's initial segment.
   Unlike an SPCM source the slots need not be contiguous, so this is one
   single-page MigratePages per frame. *)
let refill t pool ~tier ~want =
  let init = K.initial_segment t.kern in
  Mgr_free_pages.refill pool ~count:want ~source:(fun ~dst ~dst_page ~count ->
      let slots = K.initial_slots ~tier t.kern ~limit:count in
      List.iteri
        (fun i src_page ->
          K.migrate_pages t.kern ~src:init ~dst ~src_page ~dst_page:(dst_page + i) ~count:1
            ~tier ())
        slots;
      List.length slots)

(* Migration masks that carry the page's dirtiness across the frame
   change (the data moved with set_next_data, not with the frame, so the
   pool frame's leftover flags must not leak in). *)
let move_masks ~extra_set flags =
  let dirty = Flags.mem flags Flags.dirty in
  let set_flags = if dirty then Flags.of_list (Flags.dirty :: extra_set) else
    (match extra_set with [] -> Flags.empty | _ -> Flags.of_list extra_set)
  in
  let clear_flags =
    if dirty then Flags.referenced else Flags.of_list [ Flags.referenced; Flags.dirty ]
  in
  (set_flags, clear_flags)

(* Slow -> compressed store: page contents leave physical memory. *)
let demote_to_compressed t ~seg ~page _slot frame =
  Mgr_compressed.stash t.compressed ~seg ~page (frame_data t frame);
  Mgr_free_pages.put_spilling t.slow_pool ~spill:16 ~src:seg ~src_page:page;
  t.stats.demotions_compressed <- t.stats.demotions_compressed + 1;
  `Reclaimed

let ensure_slow t n =
  if Mgr_free_pages.available t.slow_pool < n then begin
    let missing = n - Mgr_free_pages.available t.slow_pool in
    ignore (refill t t.slow_pool ~tier:t.slow_tier ~want:(max missing t.refill_batch));
    if Mgr_free_pages.available t.slow_pool < n then
      ignore
        (Mgr_clock.sweep t.slow_clock
           ~count:(max (n - Mgr_free_pages.available t.slow_pool) t.reclaim_batch)
           (demote_to_compressed t))
  end;
  Mgr_free_pages.available t.slow_pool >= n

(* Fast -> slow: land the page on a slow frame, contents intact, and
   protect it so the next touch raises the promotion fault. The sweep
   stops when no slow frame can be had. *)
let demote_to_slow t ~seg ~page slot frame =
  if not (ensure_slow t 1) then `Stop
  else begin
    let data = frame_data t frame in
    let set_flags, clear_flags = move_masks ~extra_set:[ Flags.no_access ] slot.Seg.flags in
    Mgr_free_pages.put_spilling t.fast_pool ~spill:16 ~src:seg ~src_page:page;
    Mgr_free_pages.set_next_data t.slow_pool data;
    let moved =
      Mgr_free_pages.take_to t.slow_pool ~dst:seg ~dst_page:page ~count:1 ~tier:t.slow_tier
        ~set_flags ~clear_flags ()
    in
    assert (moved = 1);
    Mgr_clock.track t.slow_clock seg page;
    t.stats.demotions_slow <- t.stats.demotions_slow + 1;
    `Reclaimed
  end

let ensure_fast t n =
  if Mgr_free_pages.available t.fast_pool < n then begin
    let missing = n - Mgr_free_pages.available t.fast_pool in
    ignore (refill t t.fast_pool ~tier:t.fast_tier ~want:(max missing t.refill_batch));
    if Mgr_free_pages.available t.fast_pool < n then
      ignore
        (Mgr_clock.sweep t.fast_clock
           ~count:(max (n - Mgr_free_pages.available t.fast_pool) t.reclaim_batch)
           (demote_to_slow t))
  end;
  Mgr_free_pages.available t.fast_pool >= n

exception Out_of_frames of string

let need_fast t n =
  if not (ensure_fast t n) then
    raise
      (Out_of_frames
         (Printf.sprintf "%s: need %d fast frames, have %d after refill and demotion" t.name n
            (Mgr_free_pages.available t.fast_pool)))

(* ------------------------------------------------------------------ *)
(* Fault handling                                                     *)
(* ------------------------------------------------------------------ *)

(* A missing fault on an opted-in segment whose whole aligned region is
   empty (and not hiding in the compressed store) is served by one
   contiguous run grant from the fast tier; the kernel promotes the
   region as part of the migrate. Falls back to the 4 KB path when no
   aligned identity run is free. *)
let try_superpage_fill t ~seg ~page =
  t.sp_segs > 0
  && Hashtbl.find_opt t.segs seg = Some true
  &&
  let run = K.super_pages t.kern in
  let s = K.segment t.kern seg in
  let sbase = page / run * run in
  sbase + run <= Seg.length s
  && (let ok = ref true in
      let i = ref sbase in
      while !ok && !i < sbase + run do
        if
          (Seg.page s !i).Seg.frame <> None
          || Mgr_compressed.has t.compressed ~seg ~page:!i
        then ok := false;
        incr i
      done;
      !ok)
  &&
  let grant start = K.grant_superpage_run ~tier:t.fast_tier t.kern ~dst:seg ~dst_page:sbase ~start in
  let granted =
    match grant t.sp_cursor with
    | Some base -> Some base
    | None -> if t.sp_cursor > 0 then grant 0 else None
  in
  match granted with
  | None -> false
  | Some base ->
      t.sp_cursor <- base + run;
      for p = sbase to sbase + run - 1 do
        Mgr_clock.track t.fast_clock seg p
      done;
      t.stats.sp_fills <- t.stats.sp_fills + 1;
      t.stats.fills <- t.stats.fills + run;
      true

let handle_missing t ~seg ~page =
  if try_superpage_fill t ~seg ~page then ()
  else begin
  need_fast t 1;
  (* Fetch only once a frame is secured — fetch removes the store entry,
     and an Out_of_frames after that would lose the page. *)
  (match Mgr_compressed.fetch t.compressed ~seg ~page with
  | Some data ->
      Mgr_free_pages.set_next_data t.fast_pool data;
      t.stats.refetches <- t.stats.refetches + 1
  | None -> t.stats.fills <- t.stats.fills + 1);
  let moved =
    Mgr_free_pages.take_to t.fast_pool ~dst:seg ~dst_page:page ~count:1 ~tier:t.fast_tier
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ()
  in
  assert (moved = 1);
  Mgr_clock.track t.fast_clock seg page
  end

let promote t ~seg ~page =
  if ensure_fast t 1 then begin
    (* Re-read the slot: securing the fast frame may itself have demoted
       this very page into the compressed store (demote_to_slow ->
       ensure_slow -> demote_to_compressed), or another queued fault may
       have moved it. *)
    match Mgr_clock.lookup t.kern seg page with
    | Some (slot, frame)
      when Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame = t.slow_tier ->
        let data = frame_data t frame in
        let set_flags, clear_flags = move_masks ~extra_set:[] slot.Seg.flags in
        let clear_flags = Flags.union clear_flags Flags.no_access in
        Mgr_free_pages.put_spilling t.slow_pool ~spill:16 ~src:seg ~src_page:page;
        Mgr_free_pages.set_next_data t.fast_pool data;
        let moved =
          Mgr_free_pages.take_to t.fast_pool ~dst:seg ~dst_page:page ~count:1 ~tier:t.fast_tier
            ~set_flags ~clear_flags ()
        in
        assert (moved = 1);
        Mgr_clock.track t.fast_clock seg page;
        t.stats.promotions <- t.stats.promotions + 1
    | Some _ -> ()  (* already landed on a fast frame *)
    | None -> handle_missing t ~seg ~page
  end
  else begin
    (* No fast frame to be had — unprotect in place; the page stays slow
       and every touch pays the tier access surcharge. *)
    K.modify_page_flags t.kern ~seg ~page ~count:1 ~clear_flags:Flags.no_access ();
    t.stats.protection_clears <- t.stats.protection_clears + 1
  end

let handle_protection t (fault : Mgr.fault) =
  match Mgr_clock.lookup t.kern fault.Mgr.f_seg fault.Mgr.f_page with
  | Some (_, frame)
    when Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame = t.slow_tier ->
      promote t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page
  | _ ->
      K.modify_page_flags t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
        ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
        ();
      t.stats.protection_clears <- t.stats.protection_clears + 1

let handle_cow t (fault : Mgr.fault) =
  need_fast t 1;
  let moved =
    Mgr_free_pages.take_to t.fast_pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
      ~tier:t.fast_tier
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ()
  in
  assert (moved = 1);
  Mgr_clock.track t.fast_clock fault.Mgr.f_seg fault.Mgr.f_page;
  t.stats.cow_fills <- t.stats.cow_fills + 1

let on_fault t (fault : Mgr.fault) =
  Mgr.charge_fault_logic (K.machine t.kern);
  Sim_sync.Semaphore.with_permit t.serving @@ fun () ->
  match fault.Mgr.f_kind with
  | Mgr.Missing ->
      (* Another fault on the same page may have been served while we
         waited in the queue. *)
      if Mgr_clock.lookup t.kern fault.Mgr.f_seg fault.Mgr.f_page = None then
        handle_missing t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page
  | Mgr.Protection -> handle_protection t fault
  | Mgr.Cow_write -> handle_cow t fault

let on_close t seg =
  (match Hashtbl.find_opt t.segs seg with
  | Some true -> t.sp_segs <- t.sp_segs - 1
  | _ -> ());
  Hashtbl.remove t.segs seg;
  Mgr_clock.purge_segment t.fast_clock seg;
  Mgr_clock.purge_segment t.slow_clock seg

let return_to_system_unlocked t ~pages =
  let from_slow = Mgr_free_pages.release_to_initial t.slow_pool ~count:pages in
  let from_fast =
    if from_slow < pages then
      Mgr_free_pages.release_to_initial t.fast_pool ~count:(pages - from_slow)
    else 0
  in
  from_slow + from_fast

let return_to_system t ~pages =
  Sim_sync.Semaphore.with_permit t.serving (fun () -> return_to_system_unlocked t ~pages)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create kern ?(name = "tiered-manager") ?(fast_tier = 0) ?(slow_tier = 1) ?compressed_config
    ?(fast_pool_capacity = 128) ?(slow_pool_capacity = 128) ?(refill_batch = 16)
    ?(reclaim_batch = 8) () =
  let mem = (K.machine kern).Hw_machine.mem in
  let nt = Phys.n_tiers mem in
  if fast_tier < 0 || fast_tier >= nt || slow_tier < 0 || slow_tier >= nt then
    invalid_arg "Mgr_tiered.create: tier out of range";
  if fast_tier = slow_tier then invalid_arg "Mgr_tiered.create: fast and slow tiers must differ";
  let compressed =
    (* Backend only: its own fault handler and pool are never exercised —
       segments managed here route faults to this manager, and stash/fetch
       do not touch the frame pool. *)
    Mgr_compressed.create kern ?config:compressed_config
      ~source:(fun ~dst:_ ~dst_page:_ ~count:_ -> 0)
      ~pool_capacity:1 ()
  in
  let t =
    {
      kern;
      name;
      mid = -1;
      fast_tier;
      slow_tier;
      fast_pool =
        Mgr_free_pages.create kern ~name:(name ^ ".fast-pool") ~capacity:fast_pool_capacity;
      slow_pool =
        Mgr_free_pages.create kern ~name:(name ^ ".slow-pool") ~capacity:slow_pool_capacity;
      compressed;
      fast_clock = Mgr_clock.create ~tier:fast_tier kern;
      slow_clock = Mgr_clock.create ~tier:slow_tier kern;
      refill_batch;
      reclaim_batch;
      segs = Hashtbl.create 16;
      sp_segs = 0;
      sp_cursor = 0;
      stats = fresh_stats ();
      serving = Sim_sync.Semaphore.create 1;
    }
  in
  t.mid <-
    K.register_manager kern ~name ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ~on_close:(fun s -> on_close t s)
      ~on_pressure:(fun ~pages ->
        (* Never block (see Mgr_generic): decline when mid-fault. *)
        if Sim_sync.Semaphore.try_acquire t.serving then
          Fun.protect
            ~finally:(fun () -> Sim_sync.Semaphore.release t.serving)
            (fun () -> return_to_system_unlocked t ~pages)
        else 0)
      ();
  t

let register_seg t seg ~superpages =
  Hashtbl.replace t.segs seg superpages;
  if superpages then begin
    t.sp_segs <- t.sp_segs + 1;
    K.set_superpages t.kern ~seg ~enabled:true
  end

let create_segment t ~name ~pages ?(superpages = false) () =
  let seg = K.create_segment t.kern ~name ~pages () in
  K.set_segment_manager t.kern seg t.mid;
  register_seg t seg ~superpages;
  seg

let adopt t ?(superpages = false) seg =
  K.set_segment_manager t.kern seg t.mid;
  register_seg t seg ~superpages;
  let s = K.segment t.kern seg in
  let mem = (K.machine t.kern).Hw_machine.mem in
  Array.iteri
    (fun i slot ->
      match slot.Seg.frame with
      | None -> ()
      | Some f ->
          if Phys.tier_of_frame mem f = t.slow_tier then Mgr_clock.track t.slow_clock seg i
          else Mgr_clock.track t.fast_clock seg i)
    s.Seg.pages

let managed t = Hashtbl.fold (fun k _ acc -> k :: acc) t.segs [] |> List.sort compare
let resident_by_tier t ~seg = Seg.resident_pages_by_tier (K.segment t.kern seg)
let fast_available t = Mgr_free_pages.available t.fast_pool
let slow_available t = Mgr_free_pages.available t.slow_pool
