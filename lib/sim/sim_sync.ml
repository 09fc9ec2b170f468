module Semaphore = struct
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create n =
    if n < 0 then invalid_arg "Sim_sync.Semaphore.create: negative count";
    { count = n; waiters = Queue.create () }

  let available t = t.count
  let waiting t = Queue.length t.waiters

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Sim_engine.suspend (fun resume -> Queue.add (fun () -> resume ()) t.waiters)

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let release t =
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> t.count <- t.count + 1

  let with_permit t f =
    acquire t;
    Fun.protect ~finally:(fun () -> release t) f
end

module Resource = struct
  type t = {
    engine : Sim_engine.t;
    capacity : int;
    sem : Semaphore.t;
    mutable busy : int;
    busy_tw : Sim_stats.Time_weighted.t;
  }

  let create engine ~capacity =
    if capacity <= 0 then invalid_arg "Sim_sync.Resource.create: capacity must be positive";
    {
      engine;
      capacity;
      sem = Semaphore.create capacity;
      busy = 0;
      busy_tw = Sim_stats.Time_weighted.create ~now:(Sim_engine.now engine) ~init:0.0;
    }

  let capacity t = t.capacity
  let in_use t = t.busy
  let waiting t = Semaphore.waiting t.sem

  let set_busy t n =
    t.busy <- n;
    Sim_stats.Time_weighted.set t.busy_tw ~now:(Sim_engine.now t.engine) (float_of_int n)

  let use t f =
    Semaphore.acquire t.sem;
    set_busy t (t.busy + 1);
    Fun.protect
      ~finally:(fun () ->
        set_busy t (t.busy - 1);
        Semaphore.release t.sem)
      f

  let utilisation t =
    let avg = Sim_stats.Time_weighted.average t.busy_tw ~now:(Sim_engine.now t.engine) in
    avg /. float_of_int t.capacity
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; readers : ('a -> unit) Queue.t }

  let create () = { items = Queue.create (); readers = Queue.create () }

  let send t v =
    match Queue.take_opt t.readers with
    | Some resume -> resume v
    | None -> Queue.add v t.items

  let recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None -> Sim_engine.suspend (fun resume -> Queue.add resume t.readers)

  let try_recv t = Queue.take_opt t.items
  let length t = Queue.length t.items
end

module Gate = struct
  type t = { mutable opened : bool; waiters : (unit -> unit) Queue.t }

  let create () = { opened = false; waiters = Queue.create () }

  let wait t =
    if not t.opened then
      Sim_engine.suspend (fun resume -> Queue.add (fun () -> resume ()) t.waiters)

  let open_ t =
    if not t.opened then begin
      t.opened <- true;
      Queue.iter (fun resume -> resume ()) t.waiters;
      Queue.clear t.waiters
    end

  let is_open t = t.opened
end

module Condition = struct
  type t = { waiters : (unit -> unit) Queue.t }

  let create () = { waiters = Queue.create () }

  let await t = Sim_engine.suspend (fun resume -> Queue.add (fun () -> resume ()) t.waiters)

  let signal_all t =
    (* Drain into a list first: a woken process may immediately await again,
       and it must not consume this same signal. *)
    let woken = List.of_seq (Queue.to_seq t.waiters) in
    Queue.clear t.waiters;
    List.iter (fun resume -> resume ()) woken

  let waiting t = Queue.length t.waiters
end
