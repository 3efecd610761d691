(* The records and the error type the daemon's interface exports;
   {!Daemon} documents each field. *)

type config = {
  rdir_capacity : int;
  ram_pages : int;
  disk_pages : int;
  lock_timeout : Ksim.Time.t;
  lock_retries : int;
  request_timeout : Ksim.Time.t;
  report_every : Ksim.Time.t;
  wal_checkpoint_every : int;
  acquire_window : int;
  txn_resolve_after : Ksim.Time.t;
  version_chain_depth : int;
  diff_density_max : float;
}

let default_config =
  {
    rdir_capacity = 128;
    ram_pages = 256;
    disk_pages = 65_536;
    lock_timeout = Ksim.Time.sec 2;
    lock_retries = 3;
    request_timeout = Ksim.Time.ms 200;
    report_every = Ksim.Time.ms 500;
    wal_checkpoint_every = 512;
    (* Pages per concurrent acquisition wave in a multi-page lock; 1
       recovers the old fully-sequential behaviour. *)
    acquire_window = 16;
    (* How long a participant sits on a prepared-but-undecided transaction
       before it starts asking the coordinator what happened. Long enough
       that a healthy 2PC round never triggers it. *)
    txn_resolve_after = Ksim.Time.sec 3;
    (* Versioned CM: immutable versions retained per page at the home. *)
    version_chain_depth = 8;
    (* Versioned CM: publish the runs of changed bytes only while they
       cover at most this fraction of the page; denser changes ship the
       whole image (runs would cost more than they save once per-run
       framing is paid). *)
    diff_density_max = 0.5;
  }

type error = Error.t

let error_to_string = Error.to_string

type lookup_stats = {
  homed_hits : int;
  rdir_hits : int;
  cluster_hits : int;
  map_walks : int;
  map_walk_depth_total : int;
  cluster_walks : int;  (* resolved by walking peer cluster managers *)
  failures : int;
}
