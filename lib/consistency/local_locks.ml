(** Node-local reader/writer lock accounting.

    Lock operations "indicate the caller's intention to access a portion of
    a region"; the machine combines this compatibility check with its
    protocol state to decide when to grant. *)

type t = {
  mutable readers : int;
  mutable writer : bool;
  mutable cache_req : Types.mode option;
      (** the mode of the one request to the home in flight, if any *)
  waiters : (Types.req_id * Types.mode) Queue.t;
      (** lock intents not yet granted, oldest first *)
}

let create () =
  { readers = 0; writer = false; cache_req = None; waiters = Queue.create () }

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

let enqueue t req mode = Queue.push (req, mode) t.waiters

(* Grant intents from the head of the queue while the protocol state [st]
   [allows] the mode and no local holder conflicts. At the first intent it
   cannot grant it stops; when the protocol state is what blocks it, it
   sends [ask mode] to [home] unless a request is already in flight.
   Callers pass top-level functions, so a pump allocates only what it
   emits. *)
let rec pump t ~allows ~ask ~home st acc =
  if Queue.is_empty t.waiters then acc
  else
    let req, mode = Queue.peek t.waiters in
    if not (allows st mode) then
      if t.cache_req <> None then acc
      else begin
        t.cache_req <- Some mode;
        Types.Send (home, ask mode) :: acc
      end
    else if can t mode then begin
      ignore (Queue.pop t.waiters);
      take t mode;
      pump t ~allows ~ask ~home st (Types.Grant req :: acc)
    end
    else acc

(* The home refused the request in flight ([Nack]): it was made for the
   head intent, which is rejected with [why]. *)
let reject_head t why acc =
  t.cache_req <- None;
  match Queue.take_opt t.waiters with
  | Some (req, _) -> Types.Reject (req, Types.Unavailable why) :: acc
  | None -> acc

(* Forget the intent [req] (the daemon gave up on it). If it was at the
   head of the queue, the request in flight was made for it: clear the
   marker so the next intent asks again. *)
let abort t req =
  (match Queue.peek_opt t.waiters with
   | Some (r, _) when r = req -> t.cache_req <- None
   | Some _ | None -> ());
  let remaining = Queue.create () in
  Queue.iter (fun (r, m) -> if r <> req then Queue.push (r, m) remaining) t.waiters;
  Queue.clear t.waiters;
  Queue.transfer remaining t.waiters
