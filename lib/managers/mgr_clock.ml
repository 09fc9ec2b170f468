module K = Epcm_kernel
module Seg = Epcm_segment
module Flags = Epcm_flags

type entry = { seg : Seg.id; page : int; mutable dead : bool }

type t = {
  kern : K.t;
  tier : int option;
  mutable ring : entry list;  (* newest first; compacted lazily *)
  mutable hand : entry list;  (* suffix of the scan order *)
  mutable len : int;  (* entries in [ring], live and dead *)
  mutable tombs : int;  (* tombstones still in [ring] *)
}

type verdict = [ `Reclaimed | `Kept | `Stop ]

let create ?tier kern = { kern; tier; ring = []; hand = []; len = 0; tombs = 0 }
let length t = t.len
let live t = t.len - t.tombs

let track t seg page =
  t.ring <- { seg; page; dead = false } :: t.ring;
  t.len <- t.len + 1

let tombstone t e =
  e.dead <- true;
  t.tombs <- t.tombs + 1;
  if t.tombs * 2 > t.len then begin
    t.ring <- List.filter (fun e -> not e.dead) t.ring;
    t.len <- List.length t.ring;
    t.tombs <- 0
  end

let purge_segment t seg =
  t.ring <- List.filter (fun e -> (not e.dead) && e.seg <> seg) t.ring;
  t.len <- List.length t.ring;
  t.tombs <- 0;
  t.hand <- List.filter (fun e -> e.seg <> seg) t.hand

let lookup kern seg page =
  if not (K.segment_exists kern seg) then None
  else
    let s = K.segment kern seg in
    if not (Seg.in_range s page) then None
    else
      let slot = Seg.page s page in
      Option.map (fun frame -> (slot, frame)) slot.Seg.frame

let foreign t frame =
  match t.tier with
  | None -> false
  | Some tier -> Hw_phys_mem.tier_of_frame (K.machine t.kern).Hw_machine.mem frame <> tier

let sweep t ~count ?until_full victim =
  let reclaimed = ref 0 in
  let passes = ref 0 in
  let stop = ref false in
  (* Two full sweeps at most: the first typically clears reference bits,
     the second finds victims. A sweep in progress runs to completion. *)
  while (not !stop) && !reclaimed < count && (!passes < 2 || t.hand <> []) do
    if t.hand = [] then begin
      t.hand <- t.ring;
      incr passes;
      if t.hand = [] then stop := true
    end;
    match t.hand with
    | [] -> stop := true
    | e :: rest -> (
        t.hand <- rest;
        match until_full with
        | Some pool when Mgr_free_pages.room pool = 0 -> stop := true
        | _ -> (
            if not e.dead then
              match lookup t.kern e.seg e.page with
              | None -> tombstone t e
              | Some (_, frame) when foreign t frame -> tombstone t e
              | Some (slot, frame) ->
                  let flags = slot.Seg.flags in
                  if Flags.mem flags Flags.pinned || Flags.mem flags Flags.io_busy then ()
                  else if Flags.mem flags Flags.referenced then
                    K.modify_page_flags t.kern ~seg:e.seg ~page:e.page ~count:1
                      ~clear_flags:Flags.referenced ()
                  else
                    match victim ~seg:e.seg ~page:e.page slot frame with
                    | `Reclaimed -> incr reclaimed
                    | `Kept -> ()
                    | `Stop -> stop := true))
  done;
  !reclaimed
