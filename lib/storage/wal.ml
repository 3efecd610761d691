let src = Logs.Src.create "khazana.wal" ~doc:"Write-ahead intent log"

module Log = (val Logs.src_log src : Logs.LOG)
module Gaddr = Kutil.Gaddr
module Codec = Kutil.Codec

(* Simulated recovery cost: one disk seek to open the log, then a
   sequential read and re-apply per surviving record. *)
let replay_open_cost = Ksim.Time.ms 6
let replay_record_cost = Ksim.Time.us 40

type payload = Page of Gaddr.t * bytes | Note of string * bytes
type owed = (int * (Gaddr.t * int) list) list

(* What the log itself reads of a record: transaction ids and 2PC
   bookkeeping. [Data] and [Control] records carry a payload and a
   [Checkpoint] carries the snapshot, but those bytes live only in the
   record's encoded [image] (a page image: in its [page]); replay decodes
   them from there. *)
type head =
  | Begin of int
  | Data of int
  | Commit of int
  | Control
  | Checkpoint
  | Prepare of int * Kutil.Txid.t
  | Decide of Kutil.Txid.t * bool * owed

(* A record is encoded once: its encoding is [image] followed by [page],
   the bytes the file framing writes. A page record appended here keeps
   the caller's image itself as [page], and its [image] stops after the
   page's length prefix; [page] is empty for every other record and for
   records loaded from a file, whose [image] is the whole encoding.
   [check] is the checksum of [image] continued over [page], standing in
   for the on-disk framing a real log would have. A torn record is
   modelled by replacing the two with a cut of the whole encoding, under
   that encoding's checksum; replay then finds a mismatch. *)
type record = { head : head; image : bytes; page : bytes; check : int }

let sum r = Disk_fault.checksum_more (Disk_fault.checksum r.image) r.page

(* Real-file backing: the same record stream framed as
   [u32 length][encoding] on an fd. [on_disk] is the length of the
   oldest-first prefix already written; {!sync} appends the rest and
   fsyncs, {!checkpoint} rewrites the whole (now tiny) log atomically. *)
type file = {
  path : string;
  mutable fd : Unix.file_descr;
  mutable on_disk : int;
}

type stats = {
  appends : int;
  syncs : int;
  commits : int;
  checkpoints : int;
  torn_tail : int;
  lost_records : int;
}

type t = {
  checkpoint_every : int;
  rng : Kutil.Rng.t;
  enc : Codec.encoder;           (* reused by every append but checkpoints *)
  mutable faults : Disk_fault.config;
  mutable records : record list; (* newest first *)
  mutable synced : int;          (* durable prefix length (oldest-first) *)
  mutable len : int;
  mutable since_checkpoint : int;
  mutable next_tx : int;
  mutable generation : int;      (* bumped on crash: fences stale tx handles *)
  mutable appends : int;
  mutable sync_count : int;
  mutable commit_count : int;
  mutable checkpoint_count : int;
  mutable torn_count : int;
  mutable lost_count : int;
  mutable torn_since_checkpoint : bool;
      (* only {!crash} tears a record, and {!checkpoint} drops it *)
  mutable file : file option;
}

type tx = { id : int; born : int (* generation *) }

let create ?(checkpoint_every = 512) ~rng () =
  {
    checkpoint_every;
    rng;
    enc = Codec.encoder ();
    faults = Disk_fault.none;
    records = [];
    synced = 0;
    len = 0;
    since_checkpoint = 0;
    next_tx = 1;
    generation = 0;
    appends = 0;
    sync_count = 0;
    commit_count = 0;
    checkpoint_count = 0;
    torn_count = 0;
    lost_count = 0;
    torn_since_checkpoint = false;
    file = None;
  }

let set_faults t faults = t.faults <- faults
let faults t = t.faults

(* Encode a payload up to its page image, which stays out of line: the
   page's length prefix ends the encoding, and the image itself is
   returned for the record to keep ([Bytes.empty] for a note, encoded in
   full). *)
let encode_payload e = function
  | Page (addr, data) ->
      Codec.u8 e 0;
      Codec.u128 e addr;
      Codec.u32 e (Bytes.length data);
      data
  | Note (tag, data) ->
      Codec.u8 e 1;
      Codec.string e tag;
      Codec.bytes e data;
      Bytes.empty

let encode_owed e owed =
  Codec.list e
    (fun (node, pages) ->
      Codec.u32 e node;
      Codec.list e
        (fun (page, version) ->
          Codec.u128 e page;
          Codec.int e version)
        pages)
    owed

let decode_owed d =
  Codec.read_list d (fun () ->
      let node = Codec.read_u32 d in
      (node, Codec.read_list d (fun () ->
           let page = Codec.read_u128 d in
           (page, Codec.read_int d))))

(* A record's image is its head's encoding followed by its payload's (or,
   for a checkpoint, the snapshot's). *)
let encode_head e = function
  | Begin id ->
      Codec.u8 e 0;
      Codec.int e id
  | Data id ->
      Codec.u8 e 1;
      Codec.int e id
  | Commit id ->
      Codec.u8 e 2;
      Codec.int e id
  | Control -> Codec.u8 e 3
  | Checkpoint -> Codec.u8 e 4
  | Prepare (id, gtx) ->
      Codec.u8 e 5;
      Codec.int e id;
      Kutil.Txid.encode e gtx
  | Decide (gtx, commit, participants) ->
      Codec.u8 e 6;
      Kutil.Txid.encode e gtx;
      Codec.bool e commit;
      encode_owed e participants

let decode_payload d =
  match Codec.read_u8 d with
  | 0 ->
      let addr = Codec.read_u128 d in
      Page (addr, Codec.read_bytes d)
  | 1 ->
      let tag = Codec.read_string d in
      Note (tag, Codec.read_bytes d)
  | n -> raise (Codec.Decode_error (Printf.sprintf "Wal.payload: tag %d" n))

(* Inverse of {!encode_head}, leaving [d] at the payload; raises
   {!Codec.Decode_error} on a mangled image (a torn on-disk record). *)
let decode_head d =
  match Codec.read_u8 d with
  | 0 -> Begin (Codec.read_int d)
  | 1 -> Data (Codec.read_int d)
  | 2 -> Commit (Codec.read_int d)
  | 3 -> Control
  | 4 -> Checkpoint
  | 5 ->
      let id = Codec.read_int d in
      Prepare (id, Kutil.Txid.decode d)
  | 6 ->
      let gtx = Kutil.Txid.decode d in
      let commit = Codec.read_bool d in
      Decide (gtx, commit, decode_owed d)
  | n -> raise (Codec.Decode_error (Printf.sprintf "Wal.record: tag %d" n))

(* A decoder positioned at the record's payload or snapshot. Decoded bytes
   are fresh copies: what replay returns never aliases a log image. *)
let past_head r =
  let d = Codec.decoder r.image in
  ignore (decode_head d);
  d

(* A page image kept out of line is returned as it is: the buffer the
   caller logged. *)
let record_payload r =
  let d = past_head r in
  if Bytes.length r.page = 0 then decode_payload d
  else begin
    ignore (Codec.read_u8 d);
    Page (Codec.read_u128 d, r.page)
  end

let record_snapshot r = Codec.read_bytes (past_head r)

(* A whole image's head, after checking its payload decodes too. *)
let decode_image image =
  let d = Codec.decoder image in
  let head = decode_head d in
  (match head with
  | Data _ | Control -> ignore (decode_payload d)
  | Checkpoint -> ignore (Codec.read_bytes d)
  | Begin _ | Commit _ | Prepare _ | Decide _ -> ());
  head

let add t r =
  t.records <- r :: t.records;
  t.len <- t.len + 1;
  t.since_checkpoint <- t.since_checkpoint + 1;
  t.appends <- t.appends + 1

(* Seal the record encoded in [e], followed by [page]: [to_bytes] makes the
   one exact-size copy the log keeps of the encoding, and [page] is kept as
   it is. *)
let seal t e head page =
  let image = Codec.to_bytes e in
  let check = Disk_fault.checksum_more (Disk_fault.checksum image) page in
  add t { head; image; page; check }

let append ?payload t head =
  let e = t.enc in
  Codec.reset e;
  encode_head e head;
  let page =
    match payload with Some p -> encode_payload e p | None -> Bytes.empty
  in
  seal t e head page

(* ---------------- real-file backing ---------------- *)

let write_all fd b n =
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Frame the [k] newest records (the head of the newest-first list) onto
   [fd] oldest first, each as its length prefix followed by its encoding. *)
let write_frames fd k records =
  let prefix = Bytes.create 4 in
  let rec go k = function
    | r :: older when k > 0 ->
        go (k - 1) older;
        let n = Bytes.length r.image and m = Bytes.length r.page in
        Bytes.set_int32_be prefix 0 (Int32.of_int (n + m));
        write_all fd prefix 4;
        write_all fd r.image n;
        write_all fd r.page m
    | _ -> ()
  in
  go k records

let file_append_unsynced t f =
  if f.on_disk < t.len then begin
    write_frames f.fd (t.len - f.on_disk) t.records;
    Unix.fsync f.fd;
    f.on_disk <- t.len
  end

(* Checkpoint truncation on a real file: write the whole (now tiny) log to
   a sibling and rename over — the old log remains the durable copy until
   the new one is complete, so a crash mid-checkpoint loses nothing. *)
let file_rewrite t f =
  let tmp = f.path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600 in
  write_frames fd t.len t.records;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp f.path;
  (try Unix.close f.fd with Unix.Unix_error _ -> ());
  f.fd <- Unix.openfile f.path [ O_WRONLY; O_APPEND ] 0o600;
  f.on_disk <- t.len

let sync t =
  if t.synced < t.len then t.sync_count <- t.sync_count + 1;
  t.synced <- t.len;
  match t.file with Some f -> file_append_unsynced t f | None -> ()

let begin_tx t =
  let id = t.next_tx in
  t.next_tx <- id + 1;
  append t (Begin id);
  { id; born = t.generation }

let live t tx = tx.born = t.generation
let log_page t tx addr data =
  if live t tx then append t (Data tx.id) ~payload:(Page (addr, data))

let log_note t tx tag data =
  if live t tx then append t (Data tx.id) ~payload:(Note (tag, data))

let commit t tx =
  if live t tx then begin
    append t (Commit tx.id);
    t.commit_count <- t.commit_count + 1;
    sync t
  end

let prepare t tx gtx =
  if live t tx then begin
    append t (Prepare (tx.id, gtx));
    sync t
  end

(* The optional [?sync] label below hides the function inside [decide]
   and [control]. *)
let sync_log = sync

let decide t ?(sync = true) gtx ~commit ~participants =
  append t (Decide (gtx, commit, participants));
  if sync then sync_log t

let control t ?(sync = true) tag data =
  append t Control ~payload:(Note (tag, data));
  if sync then sync_log t

(* Recount the checkpoint-cadence counter from the records the log holds
   after a crash or a load: those newer than the last checkpoint record
   (the checkpoint itself is not counted, matching {!checkpoint} and
   {!append}). *)
let recount_since_checkpoint t =
  let rec after_checkpoint acc = function
    | [] -> acc
    | { head = Checkpoint; _ } :: _ -> acc
    | _ :: rest -> after_checkpoint (acc + 1) rest
  in
  t.since_checkpoint <- after_checkpoint 0 t.records

let needs_checkpoint t = t.since_checkpoint >= t.checkpoint_every
let size t = t.len
let records_since_checkpoint t = t.since_checkpoint

(* Oldest-first records up to (not including) the first torn one, each
   verified against its checksum unless [verify] is false. *)
let readable_records ?(verify = true) t =
  let oldest_first = List.rev t.records in
  let readable = ref [] in
  let torn = ref false in
  List.iter
    (fun r ->
      if (not !torn) && ((not verify) || sum r = r.check) then
        readable := r :: !readable
      else torn := true)
    oldest_first;
  (List.rev !readable, List.length oldest_first - List.length !readable)

(* How a log's local transactions replay. [apply_tx]: it committed, or
   prepared under a global transaction whose commit decision is on record.
   [doubt_tx]: it prepared and no decision is on record (its global id);
   it is held until the coordinator answers (presumed abort), and its
   images exist nowhere but here, so truncation carries it over.
   [superseded]: a [Data] record of an in-doubt transaction whose page a
   later applied transaction wrote again. Log order is the page's version
   order: a commit decision no longer installs that older image. *)
let classify readable =
  let committed = Hashtbl.create 8 in
  let prepared : (int, Kutil.Txid.t) Hashtbl.t = Hashtbl.create 4 in
  let decided : (Kutil.Txid.t, bool) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match r.head with
      | Commit id -> Hashtbl.replace committed id ()
      | Prepare (id, gtx) -> Hashtbl.replace prepared id gtx
      | Decide (gtx, c, _) -> Hashtbl.replace decided gtx c
      | _ -> ())
    readable;
  let apply_tx id =
    Hashtbl.mem committed id
    ||
    match Hashtbl.find_opt prepared id with
    | Some gtx -> Hashtbl.find_opt decided gtx = Some true
    | None -> false
  in
  let doubt_tx id =
    match Hashtbl.find_opt prepared id with
    | Some gtx -> if Hashtbl.mem decided gtx then None else Some gtx
    | None -> None
  in
  (* Oldest first: an in-doubt image is [held] until a later applied write
     of its page supersedes it. Only page addresses are decoded, and only
     once something is held. *)
  let held = Gaddr.Table.create 4 in
  let superseded = ref [] in
  let page r =
    let d = past_head r in
    if Codec.read_u8 d = 0 then Some (Codec.read_u128 d) else None
  in
  List.iter
    (fun r ->
      match r.head with
      | Data id when doubt_tx id <> None ->
        Option.iter (fun p -> Gaddr.Table.replace held p r) (page r)
      | Data id when Gaddr.Table.length held > 0 && apply_tx id ->
        Option.iter
          (fun p ->
            Option.iter (fun h -> superseded := h :: !superseded)
              (Gaddr.Table.find_opt held p))
          (page r)
      | _ -> ())
    readable;
  (apply_tx, doubt_tx, fun r -> List.memq r !superseded)

(* Every record was verified when it was summed at append; only a tear
   since the last checkpoint can have made one unreadable. Replay still
   verifies every record. *)
let checkpoint t snapshot =
  let readable, _ = readable_records ~verify:t.torn_since_checkpoint t in
  let _, doubt_tx, superseded = classify readable in
  let carried =
    List.filter
      (fun r ->
        match r.head with
        | Begin id | Prepare (id, _) -> doubt_tx id <> None
        | Data id -> doubt_tx id <> None && not (superseded r)
        | _ -> false)
      readable
  in
  t.records <- [];
  t.len <- 0;
  t.synced <- 0;
  (* A fresh encoder: a snapshot can be far larger than any other record,
     and the log's reused encoder would keep a buffer that size for good. *)
  let e = Codec.encoder () in
  encode_head e Checkpoint;
  Codec.bytes e snapshot;
  seal t e Checkpoint Bytes.empty;
  (* In-doubt records move over as they are: same image, same checksum. *)
  List.iter (add t) carried;
  (* Carried-over records are old news, not post-checkpoint activity. *)
  t.since_checkpoint <- 0;
  t.torn_since_checkpoint <- false;
  t.checkpoint_count <- t.checkpoint_count + 1;
  (match t.file with Some f -> file_rewrite t f | None -> ());
  sync t

let crash t =
  t.generation <- t.generation + 1;
  let unsynced = t.len - t.synced in
  (* File-backed logs get their tail loss from the real kill, not the
     simulated fault model. *)
  if unsynced > 0 && Disk_fault.active t.faults && t.file = None then begin
    (* Oldest-first unsynced suffix; a sequential log loses a contiguous
       tail, so the first lost record truncates everything after it. *)
    let tail = List.rev (List.filteri (fun i _ -> i < unsynced) t.records) in
    let survive = ref [] in
    let stopped = ref false in
    List.iter
      (fun r ->
        if not !stopped then
          if Kutil.Rng.float t.rng 1.0 < t.faults.Disk_fault.lost_write_prob
          then begin
            stopped := true;
            if
              Kutil.Rng.float t.rng 1.0 < t.faults.Disk_fault.torn_write_prob
              && Bytes.length r.image + Bytes.length r.page >= 2
            then begin
              (* The frontier record was cut off partway: keep it with a
                 mangled whole encoding, under the intended encoding's
                 checksum, so replay sees a mismatch. *)
              let whole = Bytes.cat r.image r.page in
              let torn = Disk_fault.tear t.rng ~intended:whole ~prior:None in
              survive :=
                { r with
                  image = torn;
                  page = Bytes.empty;
                  check = Disk_fault.checksum whole }
                :: !survive;
              t.torn_count <- t.torn_count + 1;
              t.torn_since_checkpoint <- true
            end
          end
          else survive := r :: !survive)
      tail;
    let kept = List.length !survive in
    t.lost_count <- t.lost_count + (unsynced - kept);
    if unsynced <> kept then
      Log.debug (fun m ->
          m "crash truncated WAL tail: %d unsynced, %d survive" unsynced kept);
    t.records <-
      !survive @ List.filteri (fun i _ -> i >= unsynced) t.records;
    t.len <- t.synced + kept;
    recount_since_checkpoint t
  end;
  t.synced <- t.len

type replay = {
  snapshot : bytes option;
  ops : payload list;
  in_doubt : (Kutil.Txid.t * payload list) list;
  decisions : (Kutil.Txid.t * bool * owed) list;
  replayed : int;
  discarded : int;
}

let replay t =
  (* Pass 1: stop at the first torn record; classify the transactions. *)
  let readable, lost = readable_records t in
  let apply_tx, doubt_tx, superseded = classify readable in
  (* Pass 2: emit in log order — control records inline, tx payloads
     buffered and emitted at their commit/prepare record, so ordering
     between a transaction and later control records is the commit
     point's. *)
  let pending : (int, payload list ref) Hashtbl.t = Hashtbl.create 8 in
  let snapshot = ref None in
  let ops = ref [] in
  let in_doubt = ref [] in
  let decisions = ref [] in
  let replayed = ref 0 in
  let discarded = ref 0 in
  let buffer id p =
    match Hashtbl.find_opt pending id with
    | Some buf -> buf := p :: !buf
    | None -> Hashtbl.replace pending id (ref [ p ])
  in
  let flush id =
    match Hashtbl.find_opt pending id with
    | Some buf ->
        ops := !buf @ !ops;
        Hashtbl.remove pending id
    | None -> ()
  in
  List.iter
    (fun r ->
      match r.head with
      | Checkpoint ->
          snapshot := Some (record_snapshot r);
          incr replayed
      | Control ->
          ops := record_payload r :: !ops;
          incr replayed
      | Begin id ->
          if apply_tx id || doubt_tx id <> None then begin
            Hashtbl.replace pending id (ref []);
            incr replayed
          end
          else incr discarded
      | Data id ->
          if apply_tx id || (doubt_tx id <> None && not (superseded r))
          then begin
            buffer id (record_payload r);
            incr replayed
          end
          else incr discarded
      | Commit id ->
          flush id;
          incr replayed
      | Prepare (id, _) -> (
          if apply_tx id then begin
            flush id;
            incr replayed
          end
          else
            match doubt_tx id with
            | Some gtx ->
                let buf =
                  match Hashtbl.find_opt pending id with
                  | Some buf -> List.rev !buf
                  | None -> []
                in
                Hashtbl.remove pending id;
                in_doubt := (gtx, buf) :: !in_doubt;
                incr replayed
            | None ->
                (* Decision on record says abort. *)
                Hashtbl.remove pending id;
                incr discarded)
      | Decide (gtx, c, participants) ->
          decisions := (gtx, c, participants) :: !decisions;
          incr replayed)
    readable;
  {
    snapshot = !snapshot;
    ops = List.rev !ops;
    in_doubt = List.rev !in_doubt;
    decisions = List.rev !decisions;
    replayed = !replayed;
    discarded = !discarded + lost;
  }

let replay_cost t =
  replay_open_cost + (replay_record_cost * t.len)

let file_backed t = t.file <> None

let attach_file t path =
  if t.file <> None then invalid_arg "Wal.attach_file: already attached";
  if t.len > 0 then invalid_arg "Wal.attach_file: log not empty";
  (* Load every complete frame; a torn or garbage tail (the write a kill
     interrupted) ends the readable log and is truncated away so later
     appends don't land after junk. *)
  let valid_bytes = ref 0 in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let size = in_channel_length ic in
    let data = really_input_string ic size |> Bytes.of_string in
    close_in ic;
    let pos = ref 0 in
    let continue = ref true in
    let loaded = ref [] in
    while !continue && !pos + 4 <= size do
      let n = Int32.to_int (Bytes.get_int32_be data !pos) in
      if n < 0 || !pos + 4 + n > size then continue := false
      else begin
        let image = Bytes.sub data (!pos + 4) n in
        match decode_image image with
        | head ->
            loaded :=
              { head; image; page = Bytes.empty;
                check = Disk_fault.checksum image }
              :: !loaded;
            pos := !pos + 4 + n;
            valid_bytes := !pos
        | exception Codec.Decode_error _ -> continue := false
      end
    done;
    (* newest first, like the in-memory log *)
    t.records <- !loaded;
    t.len <- List.length !loaded;
    t.synced <- t.len;
    recount_since_checkpoint t;
    (* Never re-mint a local tx id that appears in the loaded log. *)
    List.iter
      (fun r ->
        match r.head with
        | Begin id | Data id | Commit id | Prepare (id, _) ->
            if id >= t.next_tx then t.next_tx <- id + 1
        | Control | Checkpoint | Decide _ -> ())
      t.records;
    if !valid_bytes < size then
      Log.info (fun m ->
          m "wal file %s: dropped torn tail (%d of %d bytes readable)" path
            !valid_bytes size)
  end;
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o600 in
  if Sys.file_exists path && !valid_bytes < (Unix.fstat fd).st_size then
    Unix.ftruncate fd !valid_bytes;
  t.file <- Some { path; fd; on_disk = t.len }

let stats t =
  {
    appends = t.appends;
    syncs = t.sync_count;
    commits = t.commit_count;
    checkpoints = t.checkpoint_count;
    torn_tail = t.torn_count;
    lost_records = t.lost_count;
  }
