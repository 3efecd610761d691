type node_id = Topology.node_id

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  in_flight : int;
  atoms : int;
  bytes_sent : int;
  by_kind : (string * int) list;
}

type fate = Lost | Once of Ksim.Time.t | Twice of Ksim.Time.t * Ksim.Time.t

type t = {
  (* injected-fault view *)
  up : bool array;
  mutable partitions : (int array * int array) list;
  mutable on_crash : node_id -> unit;
  (* seeded frame shim: draws only from its own rng, so arming it never
     perturbs any other seeded sequence *)
  mutable rng : Kutil.Rng.t;
  mutable drop : float;
  mutable duplicate : float;
  mutable delay : float;
  (* traffic ledger. [reset_stats] does not zero the raw counters (that
     would break conservation with traffic in flight at reset time); it
     snapshots baselines that [stats] subtracts. *)
  inflight : int array;  (* per destination *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable base_sent : int;
  mutable base_delivered : int;
  mutable base_dropped : int;
  mutable atoms : int;
  mutable bytes_sent : int;
  by_kind : (string, int) Hashtbl.t;
}

let create ?(seed = 0x66726d) n =
  {
    up = Array.make n true;
    partitions = [];
    on_crash = ignore;
    rng = Kutil.Rng.create ~seed;
    drop = 0.0;
    duplicate = 0.0;
    delay = 0.0;
    inflight = Array.make n 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    base_sent = 0;
    base_delivered = 0;
    base_dropped = 0;
    atoms = 0;
    bytes_sent = 0;
    by_kind = Hashtbl.create 32;
  }

(* ---------------- injected-fault view ---------------- *)

let is_up t n = n >= 0 && n < Array.length t.up && t.up.(n)

let crash t n =
  t.up.(n) <- false;
  t.dropped <- t.dropped + t.inflight.(n);
  t.inflight.(n) <- 0;
  t.on_crash n

let recover t n = t.up.(n) <- true
let on_crash t f = t.on_crash <- f

let partition t a b =
  t.partitions <- (Array.of_list a, Array.of_list b) :: t.partitions

let heal t = t.partitions <- []

let blocked t a b =
  let mem x arr = Array.exists (fun y -> y = x) arr in
  List.exists
    (fun (ga, gb) -> (mem a ga && mem b gb) || (mem a gb && mem b ga))
    t.partitions

let reachable t a b = is_up t a && is_up t b && not (blocked t a b)

(* ---------------- seeded frame shim ---------------- *)

let set_frame_faults t ?seed ?(drop = 0.0) ?(duplicate = 0.0) ?(delay = 0.0)
    () =
  Option.iter (fun s -> t.rng <- Kutil.Rng.create ~seed:s) seed;
  t.drop <- drop;
  t.duplicate <- duplicate;
  t.delay <- delay

let extra_delay t =
  if t.delay > 0.0 then Ksim.Time.of_sec_f (Kutil.Rng.float t.rng t.delay)
  else 0

let on_time = Once 0

let fate t ~bytes =
  if t.drop > 0.0 && Kutil.Rng.float t.rng 1.0 < t.drop then begin
    t.dropped <- t.dropped + 1;
    Lost
  end
  else
    let first = extra_delay t in
    if t.duplicate > 0.0 && Kutil.Rng.float t.rng 1.0 < t.duplicate then begin
      (* a second envelope on the wire: more bytes, same logical message *)
      t.sent <- t.sent + 1;
      t.bytes_sent <- t.bytes_sent + bytes;
      Twice (first, extra_delay t)
    end
    else if first = 0 then on_time
    else Once first

(* ---------------- traffic ledger ---------------- *)

(* Per-kind counters follow the logical messages, not the envelopes: a
   batch of N invalidations counts as N under "cm.inval", so kind-level
   comparisons stay meaningful whether or not coalescing is on. *)
let rec note_kinds t = function
  | [] -> ()
  | k :: rest ->
    t.atoms <- t.atoms + 1;
    Hashtbl.replace t.by_kind k
      (1 + Option.value (Hashtbl.find_opt t.by_kind k) ~default:0);
    note_kinds t rest

let note_sent t ~bytes kinds =
  t.sent <- t.sent + 1;
  t.bytes_sent <- t.bytes_sent + bytes;
  note_kinds t kinds

let note_delivered t = t.delivered <- t.delivered + 1
let note_dropped t = t.dropped <- t.dropped + 1
let note_in_flight t n = t.inflight.(n) <- t.inflight.(n) + 1
let note_landed t n = t.inflight.(n) <- t.inflight.(n) - 1

let in_flight t = Array.fold_left ( + ) 0 t.inflight

let stats t =
  {
    sent = t.sent - t.base_sent;
    delivered = t.delivered - t.base_delivered;
    dropped = t.dropped - t.base_dropped;
    in_flight = in_flight t;
    atoms = t.atoms;
    bytes_sent = t.bytes_sent;
    by_kind =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_kind []);
  }

let reset_stats t =
  t.base_delivered <- t.delivered;
  t.base_dropped <- t.dropped;
  (* Not [t.sent]: whatever is still in flight stays counted as sent in the
     new window, so conservation holds when it later delivers or drops. *)
  t.base_sent <- t.sent - in_flight t;
  t.atoms <- 0;
  t.bytes_sent <- 0;
  Hashtbl.reset t.by_kind
