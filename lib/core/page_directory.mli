(** Per-node page directory.

    "The local storage subsystem on each node maintains a page directory,
    indexed by global addresses, that contains information about individual
    pages of global regions including the list of nodes sharing this page."
    Entries for locally-homed pages are authoritative (they mirror the
    consistency manager's sharer knowledge); entries for remote pages are
    hints. Nothing here survives a crash by itself — the in-memory table is
    wiped, and recovery rebuilds the authoritative part from the WAL
    checkpoint snapshot ({!encode_persistent} / {!decode_persistent}) plus
    the replayed log suffix. *)

type entry = {
  region_base : Kutil.Gaddr.t;
  homed_here : bool;
  mutable sharers : Knet.Topology.node_id list;
      (** possibly-stale hint; a CREW home lists the owner first *)
}

type t

val create : unit -> t
(** An empty directory. *)

val ensure : t -> page:Kutil.Gaddr.t -> region_base:Kutil.Gaddr.t -> homed_here:bool -> entry
(** The page's entry, created (with no sharers) if absent. *)

val find : t -> Kutil.Gaddr.t -> entry option
(** The page's entry, if one exists. *)

val set_sharers : t -> Kutil.Gaddr.t -> Knet.Topology.node_id list -> unit
(** Overwrite the recorded sharer list (no-op on unknown pages). *)

val remove : t -> Kutil.Gaddr.t -> unit
(** Forget the page entirely. *)

val crash : t -> unit
(** Wipe everything: the directory lives in memory. Homed entries come back
    through WAL replay, hints through traffic and anti-entropy repair. *)

val length : t -> int
(** Number of entries. *)

val fold : (Kutil.Gaddr.t -> entry -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every entry (iteration order unspecified). *)

val encode_persistent : t -> Kutil.Codec.encoder -> unit
(** Append the authoritative (homed-here) entries, sorted by page, for a
    WAL checkpoint snapshot. *)

val decode_persistent : t -> Kutil.Codec.decoder -> unit
(** Re-create the entries written by {!encode_persistent} (merging into
    whatever the log suffix already restored). *)
