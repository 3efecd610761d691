(** Eventual consistency — versioned lazy propagation.

    The paper proposes "even more relaxed models for applications such as
    web caches ... which typically can tolerate data that is temporarily
    out-of-date (i.e., one or two versions old) as long as they get fast
    response". This protocol grants every lock immediately against the local
    replica; writes bump a version and flow to the home asynchronously; the
    home batches fan-out on an anti-entropy timer. Conflicts resolve
    last-writer-wins on (version, node id), whole image against whole
    image: a write interval lands entire or not at all. *)

open Types

include Replica.Make (struct
  type extra = unit

  let name = "eventual"
  let init _ = ()
  let period = Replica.propagate_every
  let fresh (t : extra Replica.t) version = version > t.ver

  let absorb t ~src:_ msg acc =
    match msg with
    | Update { data; version } -> Replica.lww t data version acc
    | _ -> acc

  let release (t : extra Replica.t) img acc =
    t.ver <- Replica.next_version ~current:t.ver ~origin:t.cfg.self;
    t.data <- Some img;
    let acc = Install { data = img; dirty = false } :: acc in
    if Replica.is_home t then Replica.arm_fanout t acc
    else Send (t.cfg.home, Update { data = img; version = t.ver }) :: acc

  let restart _ = ()
end)
