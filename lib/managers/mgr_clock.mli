(** Second-chance clock over resident pages: the replacement mechanics
    of the generic segment manager (paper §2.2), shared by every manager
    that runs a clock ({!Mgr_generic} and both tiers of {!Mgr_tiered}).
    The caller keeps the policy — what happens to a victim — and passes
    it to {!sweep}.

    The ring is a list, newest entry first, and the hand is a suffix of
    the scan order. Entries whose page has lost its frame are tombstoned
    when the hand meets them, not filtered out on the spot: an eager
    filter per stale entry is O(ring), which goes quadratic under churn.
    The ring compacts once tombstones outnumber live entries, so removal
    is amortised O(1) and the ring never holds more than about twice its
    live entries. *)

type t

val create : ?tier:int -> Epcm_kernel.t -> t
(** An empty ring. With [tier], a page whose frame is not of that memory
    tier counts as gone — a page another ring moved across tiers looks
    like this from this ring. *)

val track : t -> Epcm_segment.id -> int -> unit
(** Enter a resident page at the head of the ring. *)

val purge_segment : t -> Epcm_segment.id -> unit
(** Drop every entry of a closed segment (and all tombstones) at once. *)

val lookup : Epcm_kernel.t -> Epcm_segment.id -> int -> (Epcm_segment.page_state * int) option
(** The slot and frame of a resident page; [None] when the segment is
    gone, the page out of range, or no frame is mapped. *)

type verdict = [ `Reclaimed | `Kept | `Stop ]
(** What the victim action did: freed the page's frame, left the page in
    place (the hand moves on), or cannot free anything more (the sweep
    ends). *)

val sweep :
  t ->
  count:int ->
  ?until_full:Mgr_free_pages.t ->
  (seg:Epcm_segment.id -> page:int -> Epcm_segment.page_state -> int -> verdict) ->
  int
(** Advance the hand until [count] victims were [`Reclaimed], a victim
    answered [`Stop], or two full passes found nothing more (a pass in
    progress runs to completion). Each entry the hand reaches is
    classified in order: tombstoned if its page is gone (see {!create}
    for [tier]); skipped if pinned or [io_busy]; given a second chance —
    its [referenced] bit cleared, one [ModifyPageFlags] — if referenced;
    otherwise handed to the victim action with its slot and frame. With
    [until_full] the sweep also ends as soon as that pool has no room,
    checked each time the hand advances, before the entry is looked at.
    Returns the number of victims reclaimed. *)

val length : t -> int
(** Entries in the ring, tombstones included. *)

val live : t -> int
(** Entries not yet tombstoned. *)
