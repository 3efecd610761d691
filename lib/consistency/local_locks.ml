(** Node-local reader/writer lock accounting.

    Lock operations "indicate the caller's intention to access a portion of
    a region"; the machine combines this compatibility check with its
    protocol state to decide when to grant. *)

type t = {
  mutable readers : int;
  mutable writer : bool;
  mutable cache_req : Types.mode option;
      (** the mode of the one request to the home in flight, if any *)
}

let create () = { readers = 0; writer = false; cache_req = None }

let can t = function
  | Types.Read -> not t.writer
  | Types.Write -> (not t.writer) && t.readers = 0

let take t mode =
  assert (can t mode);
  match mode with
  | Types.Read -> t.readers <- t.readers + 1
  | Types.Write -> t.writer <- true

let drop t mode =
  match mode with
  | Types.Read ->
    if t.readers <= 0 then invalid_arg "Local_locks.drop: no readers";
    t.readers <- t.readers - 1
  | Types.Write ->
    if not t.writer then invalid_arg "Local_locks.drop: no writer";
    t.writer <- false

let held t = (t.readers, t.writer)
let idle t = t.readers = 0 && not t.writer

(* The request for a copy ([Read]) or a token ([Write]) from the home. *)
let request_for = function
  | Types.Read -> Types.Read_req
  | Types.Write -> Types.Write_req

(* The FIFO queue of lock intents every machine keeps beside its lock
   table. [pump] grants from the head while the protocol state [st]
   [allows] the mode and no local holder conflicts. At the first intent it
   cannot grant it stops; when the protocol state is what blocks it, it
   sends [ask mode] to [home] unless a request is already in flight.
   Callers pass top-level functions, so a pump allocates only what it
   emits. *)
let rec pump t waiters ~allows ~ask ~home st acc =
  if Queue.is_empty waiters then acc
  else
    let req, mode = Queue.peek waiters in
    if not (allows st mode) then
      if t.cache_req <> None then acc
      else begin
        t.cache_req <- Some mode;
        Types.Send (home, ask mode) :: acc
      end
    else if can t mode then begin
      ignore (Queue.pop waiters);
      take t mode;
      pump t waiters ~allows ~ask ~home st (Types.Grant req :: acc)
    end
    else acc

(* Forget the intent [req] (the daemon gave up on it). If it was at the
   head of the queue, the request in flight was made for it: clear the
   marker so the next intent asks again. *)
let abort t waiters req =
  (match Queue.peek_opt waiters with
   | Some (r, _) when r = req -> t.cache_req <- None
   | Some _ | None -> ());
  let remaining = Queue.create () in
  Queue.iter (fun (r, m) -> if r <> req then Queue.push (r, m) remaining) waiters;
  Queue.clear waiters;
  Queue.transfer remaining waiters
