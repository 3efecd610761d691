module Gaddr = Kutil.Gaddr
module Codec = Kutil.Codec
module Client = Khazana.Client
module Attr = Khazana.Attr
module Region = Khazana.Region

type block_policy = Per_block_regions | Contiguous of int

type error =
  [ Khazana.Daemon.error
  | `Not_found
  | `Exists
  | `Not_a_directory
  | `Is_a_directory
  | `Not_empty
  | `File_too_big
  | `Corrupt of string ]

let error_to_string : error -> string = function
  | #Khazana.Daemon.error as e -> Khazana.Daemon.error_to_string e
  | `Not_found -> "not found"
  | `Exists -> "already exists"
  | `Not_a_directory -> "not a directory"
  | `Is_a_directory -> "is a directory"
  | `Not_empty -> "directory not empty"
  | `File_too_big -> "file too big"
  | `Corrupt s -> "corrupt filesystem: " ^ s

let ( let* ) = Result.bind
let lift (r : ('a, Khazana.Daemon.error) result) : ('a, error) result =
  (r :> ('a, error) result)

type kind = File | Directory

type stat = {
  kind : kind;
  bytes : int;
  blocks : int;
  inode_addr : Gaddr.t;
}

(* ------------------------------------------------------------------ *)
(* On-disk structures                                                  *)
(* ------------------------------------------------------------------ *)

let sb_magic = 0x4B465331 (* "KFS1" *)
let inode_magic = 0x494E4F44 (* "INOD" *)

(* An inode fits one page; with a 56-byte header and 16-byte block
   pointers, ~200 direct blocks are safe within 4 KiB. *)
let max_direct_blocks = 200

type superblock = {
  policy : block_policy;
  root_inode : Gaddr.t;
  default_attr : Attr.t;
}

let encode_superblock sb =
  let e = Codec.encoder () in
  Codec.u32 e sb_magic;
  (match sb.policy with
   | Per_block_regions -> Codec.u8 e 0
   | Contiguous max -> (
     Codec.u8 e 1;
     Codec.int e max));
  Codec.u128 e sb.root_inode;
  Attr.encode e sb.default_attr;
  Codec.to_bytes e

let decode_superblock bytes =
  let d = Codec.decoder bytes in
  let m = Codec.read_u32 d in
  if m <> sb_magic then raise (Codec.Decode_error "bad superblock magic");
  let policy =
    match Codec.read_u8 d with
    | 0 -> Per_block_regions
    | 1 -> Contiguous (Codec.read_int d)
    | n -> raise (Codec.Decode_error (Printf.sprintf "bad policy %d" n))
  in
  let root_inode = Codec.read_u128 d in
  let default_attr = Attr.decode d in
  { policy; root_inode; default_attr }

type inode = {
  ikind : kind;
  isize : int;
  (* Per_block_regions: one region address per block, in order.
     Contiguous: a single-element list holding the data region base. *)
  iblocks : Gaddr.t list;
}

let encode_inode ino =
  let e = Codec.encoder () in
  Codec.u32 e inode_magic;
  Codec.u8 e (match ino.ikind with File -> 0 | Directory -> 1);
  Codec.int e ino.isize;
  Codec.list e (Codec.u128 e) ino.iblocks;
  Codec.to_bytes e

let decode_inode bytes =
  let d = Codec.decoder bytes in
  let m = Codec.read_u32 d in
  if m <> inode_magic then raise (Codec.Decode_error "bad inode magic");
  let ikind =
    match Codec.read_u8 d with
    | 0 -> File
    | 1 -> Directory
    | n -> raise (Codec.Decode_error (Printf.sprintf "bad kind %d" n))
  in
  let isize = Codec.read_int d in
  let iblocks = Codec.read_list d (fun () -> Codec.read_u128 d) in
  { ikind; isize; iblocks }

type dirent = { name : string; addr : Gaddr.t; dkind : kind }

let encode_dirents entries =
  let e = Codec.encoder () in
  Codec.list e
    (fun ent ->
      Codec.string e ent.name;
      Codec.u128 e ent.addr;
      Codec.u8 e (match ent.dkind with File -> 0 | Directory -> 1))
    entries;
  Codec.to_bytes e

let decode_dirents bytes =
  let d = Codec.decoder bytes in
  Codec.read_list d (fun () ->
      let name = Codec.read_string d in
      let addr = Codec.read_u128 d in
      let dkind =
        match Codec.read_u8 d with
        | 0 -> File
        | 1 -> Directory
        | n -> raise (Codec.Decode_error (Printf.sprintf "bad dirent kind %d" n))
      in
      { name; addr; dkind })

(* ------------------------------------------------------------------ *)
(* Mounted instance                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  client : Client.t;
  sb_addr : Gaddr.t;
  sb : superblock;
  block_size : int;
}

let client t = t.client
let superblock_addr t = t.sb_addr

let decode_guard ?(what = "") f =
  try Ok (f ())
  with Codec.Decode_error m -> Error (`Corrupt (what ^ ": " ^ m))

(* ------------------------------------------------------------------ *)
(* Low-level region helpers                                            *)
(* ------------------------------------------------------------------ *)

let page_size t = t.sb.default_attr.Attr.page_size

let new_region client ~attr ~len =
  lift (Client.create_region client ~attr len)

let read_struct t addr ~len decode =
  let* bytes = lift (Client.read_bytes t.client ~addr len) in
  decode_guard ~what:"struct" (fun () -> decode bytes)

let write_struct t addr bytes = lift (Client.write_bytes t.client ~addr bytes)

(* Inodes occupy exactly one page-sized region. *)
let read_inode t addr = read_struct t addr ~len:(page_size t) decode_inode

let pad_inode t ino =
  let bytes = encode_inode ino in
  let padded = Bytes.make (page_size t) '\000' in
  Bytes.blit bytes 0 padded 0 (Bytes.length bytes);
  padded

let write_inode t addr ino = write_struct t addr (pad_inode t ino)

(* Mutations serialise on the inode's write lock: the whole
   read-inode / modify / write-inode cycle runs under one lock context, so
   concurrent mutators (on any node) cannot lose each other's updates.
   Block data lives in other regions and may be touched while the inode
   lock is held without deadlock (lock order is always inode-then-blocks,
   one inode at a time). *)
let with_inode_locked t addr f =
  match Client.lock t.client ~addr ~len:(page_size t) Kconsistency.Types.Write with
  | Error e -> Error (e :> error)
  | Ok ctx ->
    Fun.protect
      ~finally:(fun () -> Client.unlock t.client ctx)
      (fun () ->
        let* raw = lift (Client.read t.client ctx ~addr ~len:(page_size t)) in
        let* ino = decode_guard ~what:"inode" (fun () -> decode_inode raw) in
        f ctx ino)

let put_inode_locked t ctx ~addr ino =
  lift (Client.write t.client ctx ~addr (pad_inode t ino))

(* ------------------------------------------------------------------ *)
(* File data: block mapping under both policies                        *)
(* ------------------------------------------------------------------ *)

let block_of_offset t off = off / t.block_size

let max_file_size t =
  match t.sb.policy with
  | Per_block_regions -> max_direct_blocks * t.block_size
  | Contiguous max -> max

(* Ensure the inode has blocks covering [0, upto); allocates missing ones
   and returns the updated inode. *)
let ensure_blocks t ~attr ino ~upto =
  if upto > max_file_size t then Error `File_too_big
  else
    match t.sb.policy with
    | Contiguous max -> (
      match ino.iblocks with
      | _ :: _ -> Ok ino
      | [] ->
        let* data = new_region t.client ~attr ~len:max in
        Ok { ino with iblocks = [ data.Region.base ] })
    | Per_block_regions ->
      let needed = (upto + t.block_size - 1) / t.block_size in
      let have = List.length ino.iblocks in
      if have >= needed then Ok ino
      else begin
        let rec alloc acc n =
          if n = 0 then Ok (List.rev acc)
          else
            let* r = new_region t.client ~attr ~len:t.block_size in
            alloc (r.Region.base :: acc) (n - 1)
        in
        let* fresh = alloc [] (needed - have) in
        Ok { ino with iblocks = ino.iblocks @ fresh }
      end

(* Address of byte [off] within the file, given its block table. *)
let data_addr t ino off =
  match t.sb.policy with
  | Contiguous _ -> (
    match ino.iblocks with
    | [ base ] -> Some (Gaddr.add_int base off)
    | [] | _ :: _ :: _ -> None)
  | Per_block_regions -> (
    match List.nth_opt ino.iblocks (block_of_offset t off) with
    | Some base -> Some (Gaddr.add_int base (off mod t.block_size))
    | None -> None)

(* The extents covering [off, off + len), in order: one for a contiguous
   file (one lock covers the run), one per touched block otherwise.
   [f addr ~pos ~chunk] runs on each; [pos] is the extent's offset from
   [off]. *)
let iter_extents t ino ~off ~len f =
  match t.sb.policy with
  | Contiguous _ -> (
    match data_addr t ino off with
    | Some addr -> f addr ~pos:0 ~chunk:len
    | None -> Error (`Corrupt "missing data region"))
  | Per_block_regions ->
    let rec go pos =
      if pos >= len then Ok ()
      else begin
        let off = off + pos in
        let chunk = min (len - pos) (t.block_size - (off mod t.block_size)) in
        match data_addr t ino off with
        | None -> Error (`Corrupt "missing block")
        | Some addr ->
          let* () = f addr ~pos ~chunk in
          go (pos + chunk)
      end
    in
    go 0

(* [write addr bytes] and [read addr len] are the plain or the
   transactional client call. *)
let write_extents t ino ~off data write =
  let len = Bytes.length data in
  iter_extents t ino ~off ~len (fun addr ~pos ~chunk ->
      write addr (if chunk = len then data else Bytes.sub data pos chunk))

let read_extents t ino ~off ~len read =
  let out = Bytes.create len in
  let* () =
    iter_extents t ino ~off ~len (fun addr ~pos ~chunk ->
        let* piece = read addr chunk in
        Bytes.blit piece 0 out pos chunk;
        Ok ())
  in
  Ok out

let plain_write t addr data = lift (Client.write_bytes t.client ~addr data)
let plain_read t addr len = lift (Client.read_bytes t.client ~addr len)
let txn_write t txn addr data = Client.txn_write t.client txn ~addr data
let txn_read t txn addr len = Client.txn_read t.client txn ~addr ~len

let write_file_data t ino ~off data = write_extents t ino ~off data (plain_write t)
let read_file_data t ino ~off ~len = read_extents t ino ~off ~len (plain_read t)

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)
(* ------------------------------------------------------------------ *)

let load_entries t ino read =
  if ino.isize = 0 then Ok []
  else
    let* raw = read_extents t ino ~off:0 ~len:ino.isize read in
    decode_guard ~what:"dirents" (fun () -> decode_dirents raw)

(* Write the entry blob, growing the directory's blocks to fit, then the
   inode with its new size through [put_inode]. *)
let store_entries t ino entries write put_inode =
  let raw = encode_dirents entries in
  let* ino = ensure_blocks t ~attr:t.sb.default_attr ino ~upto:(Bytes.length raw) in
  let* () = write_extents t ino ~off:0 raw write in
  put_inode { ino with isize = Bytes.length raw }

let read_dirents t ino = load_entries t ino (plain_read t)

(* Directory reads must serialise against mutators: the entry blob and the
   inode's size are updated under the inode's write lock, so a lockless
   reader could decode a torn pair. Hold the inode's read lock across
   both. *)
let read_dir_entries t addr =
  match Client.lock t.client ~addr ~len:(page_size t) Kconsistency.Types.Read with
  | Error e -> Error (e :> error)
  | Ok ctx ->
    Fun.protect
      ~finally:(fun () -> Client.unlock t.client ctx)
      (fun () ->
        let* raw = lift (Client.read t.client ctx ~addr ~len:(page_size t)) in
        let* ino = decode_guard ~what:"inode" (fun () -> decode_inode raw) in
        if ino.ikind <> Directory then Error `Not_a_directory
        else read_dirents t ino)

(* Caller holds the directory inode's write lock via [ctx]. *)
let write_dirents_locked t ctx inode_addr ino entries =
  store_entries t ino entries (plain_write t) (put_inode_locked t ctx ~addr:inode_addr)

(* ---- transactional variants: all reads and writes go through a
   [Client.txn] handle, so a multi-directory update commits atomically
   (or not at all) across the inodes' homes. The handle's write-intent
   locks double as the mutual-exclusion the [_locked] variants get from
   [with_inode_locked]. *)

let txn_read_inode t txn addr =
  let* raw = Client.txn_read t.client txn ~addr ~len:(page_size t) in
  decode_guard ~what:"inode" (fun () -> decode_inode raw)

let txn_write_inode t txn addr ino =
  Client.txn_write t.client txn ~addr (pad_inode t ino)

let txn_read_dirents t txn ino = load_entries t ino (txn_read t txn)

(* Block allocation ([ensure_blocks]) is deliberately outside the
   transaction: region reservation is not transactional, so an abort after
   growth leaks the fresh block region (benign — same leak as a crash
   between reserve and use). The entry blob and inode size updates are
   what must commit atomically, and do. *)
let txn_write_dirents t txn inode_addr ino entries =
  store_entries t ino entries (txn_write t txn) (txn_write_inode t txn inode_addr)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let split_path path =
  List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)

let rec resolve t addr = function
  | [] -> Ok (addr, None)
  | name :: rest -> (
    let* entries = read_dir_entries t addr in
    match List.find_opt (fun e -> e.name = name) entries with
    | None -> Error `Not_found
    | Some entry ->
      if rest = [] then Ok (addr, Some entry) else resolve t entry.addr rest)

(* Resolve a path to (parent_dir_inode_addr, entry). Root resolves to
   (root, None). *)
let lookup t path = resolve t t.sb.root_inode (split_path path)

let inode_of t path =
  let* parent, entry = lookup t path in
  match entry with
  | None -> Ok (parent (* the root itself *))
  | Some e -> Ok e.addr

(* ------------------------------------------------------------------ *)
(* Formatting and mounting                                             *)
(* ------------------------------------------------------------------ *)

let format client ?(policy = Per_block_regions) ?attr () =
  let attr =
    match attr with
    | Some a -> a
    | None -> Attr.make ~owner:(Client.principal client) ()
  in
  let page = attr.Attr.page_size in
  (* Superblock and root inode, each a region of its own. *)
  let* sb_region = lift (Client.create_region client ~attr page) in
  let* root_region = lift (Client.create_region client ~attr page) in
  let sb = { policy; root_inode = root_region.Region.base; default_attr = attr } in
  let t =
    { client; sb_addr = sb_region.Region.base; sb; block_size = page }
  in
  let* () =
    write_inode t root_region.Region.base
      { ikind = Directory; isize = 0; iblocks = [] }
  in
  let raw = encode_superblock sb in
  let padded = Bytes.make page '\000' in
  Bytes.blit raw 0 padded 0 (Bytes.length raw);
  let* () = write_struct t sb_region.Region.base padded in
  Ok sb_region.Region.base

let mount client sb_addr =
  let* attr = lift (Client.get_attr client sb_addr) in
  let* raw = lift (Client.read_bytes client ~addr:sb_addr attr.Attr.page_size) in
  let* sb = decode_guard ~what:"superblock" (fun () -> decode_superblock raw) in
  Ok { client; sb_addr; sb; block_size = sb.default_attr.Attr.page_size }

(* ------------------------------------------------------------------ *)
(* Namespace operations                                                *)
(* ------------------------------------------------------------------ *)

let parent_and_name t path =
  match List.rev (split_path path) with
  | [] -> Error `Exists (* the root *)
  | name :: rev_parents -> (
    let parents = List.rev rev_parents in
    let* parent, entry = resolve t t.sb.root_inode parents |> fun r ->
      match (parents, r) with
      | [], _ -> Ok (t.sb.root_inode, None)
      | _, Ok (dir, Some e) when e.dkind = Directory ->
        ignore dir;
        Ok (e.addr, None)
      | _, Ok (_, Some _) -> Error `Not_a_directory
      | _, Ok (dir, None) -> Ok (dir, None)
      | _, (Error _ as e) -> e
    in
    ignore entry;
    Ok (parent, name))

let add_entry t ~attr ~dkind path =
  let* dir_addr, name = parent_and_name t path in
  with_inode_locked t dir_addr (fun ctx dir_ino ->
      if dir_ino.ikind <> Directory then Error `Not_a_directory
      else
        let* entries = read_dirents t dir_ino in
        if List.exists (fun e -> e.name = name) entries then Error `Exists
        else begin
          (* Each inode is a region of its own (paper §4.1). *)
          let* ino_region = new_region t.client ~attr ~len:(page_size t) in
          let addr = ino_region.Region.base in
          let* () = write_inode t addr { ikind = dkind; isize = 0; iblocks = [] } in
          let* () =
            write_dirents_locked t ctx dir_addr dir_ino
              ({ name; addr; dkind } :: entries)
          in
          Ok addr
        end)

let create t ?attr path =
  let attr = Option.value attr ~default:t.sb.default_attr in
  if attr.Attr.page_size <> page_size t then Error `Bad_range
  else
    let* _addr = add_entry t ~attr ~dkind:File path in
    Ok ()

let mkdir t path =
  let* _addr = add_entry t ~attr:t.sb.default_attr ~dkind:Directory path in
  Ok ()

let stat t path =
  let* addr = inode_of t path in
  let* ino = read_inode t addr in
  Ok { kind = ino.ikind; bytes = ino.isize; blocks = List.length ino.iblocks;
       inode_addr = addr }

let exists t path = match stat t path with Ok _ -> true | Error _ -> false

let readdir t path =
  let* addr = inode_of t path in
  let* entries = read_dir_entries t addr in
  Ok (List.sort compare (List.map (fun e -> e.name) entries))

let file_inode t path =
  let* addr = inode_of t path in
  let* ino = read_inode t addr in
  if ino.ikind <> File then Error `Is_a_directory else Ok (addr, ino)

let write t path ~off data =
  if off < 0 then Error `Bad_range
  else
    let* addr, ino0 = file_inode t path in
    if ino0.ikind <> File then Error `Is_a_directory
    else
      with_inode_locked t addr (fun ctx ino ->
          let upto = off + Bytes.length data in
          let* attr = lift (Client.get_attr t.client addr) in
          let* ino = ensure_blocks t ~attr ino ~upto in
          let* () = write_file_data t ino ~off data in
          let isize = max ino.isize upto in
          put_inode_locked t ctx ~addr { ino with isize })

let append t path data =
  let* addr, _ = file_inode t path in
  with_inode_locked t addr (fun ctx ino ->
      let off = ino.isize in
      let upto = off + Bytes.length data in
      let* attr = lift (Client.get_attr t.client addr) in
      let* ino = ensure_blocks t ~attr ino ~upto in
      let* () = write_file_data t ino ~off data in
      put_inode_locked t ctx ~addr { ino with isize = upto })

let read t path ~off ~len =
  if off < 0 || len < 0 then Error `Bad_range
  else
    let* _addr, ino = file_inode t path in
    if off >= ino.isize then Ok Bytes.empty
    else read_file_data t ino ~off ~len:(min len (ino.isize - off))

let size t path =
  let* _addr, ino = file_inode t path in
  Ok ino.isize

(* "To truncate a file, the system deallocates regions no longer needed." *)
let truncate t path ~len =
  if len < 0 then Error `Bad_range
  else
    let* addr, ino0 = file_inode t path in
    if ino0.ikind <> File then Error `Is_a_directory
    else
      with_inode_locked t addr (fun ctx ino ->
          if len >= ino.isize then put_inode_locked t ctx ~addr { ino with isize = len }
          else begin
            match t.sb.policy with
            | Contiguous _ -> put_inode_locked t ctx ~addr { ino with isize = len }
            | Per_block_regions ->
              let keep = (len + t.block_size - 1) / t.block_size in
              let kept, dropped =
                List.filteri (fun i _ -> i < keep) ino.iblocks,
                List.filteri (fun i _ -> i >= keep) ino.iblocks
              in
              List.iter
                (fun b ->
                  Client.free t.client b;
                  Client.unreserve t.client b)
                dropped;
              put_inode_locked t ctx ~addr { ino with isize = len; iblocks = kept }
          end)

let remove_entry t path ~want =
  let* dir_addr, name = parent_and_name t path in
  with_inode_locked t dir_addr (fun ctx dir_ino ->
      let* entries = read_dirents t dir_ino in
      match List.find_opt (fun e -> e.name = name) entries with
      | None -> Error `Not_found
      | Some entry ->
        if entry.dkind <> want then
          Error
            (match want with
             | File -> `Is_a_directory
             | Directory -> `Not_a_directory)
        else
          let* ino = read_inode t entry.addr in
          let* () =
            match want with
            | Directory ->
              let* sub = read_dirents t ino in
              if sub <> [] then Error `Not_empty else Ok ()
            | File -> Ok ()
          in
          (* Free data regions, then the inode region itself. *)
          List.iter
            (fun b ->
              Client.free t.client b;
              Client.unreserve t.client b)
            ino.iblocks;
          Client.free t.client entry.addr;
          Client.unreserve t.client entry.addr;
          write_dirents_locked t ctx dir_addr dir_ino
            (List.filter (fun e -> e.name <> name) entries))

let unlink t path = remove_entry t path ~want:File
let rmdir t path = remove_entry t path ~want:Directory

(* Rename moves a directory entry between (possibly distinct) parents.
   The whole move runs inside one Khazana transaction: the removal from
   the source directory and the insertion into the destination commit
   atomically through 2PC across the two inodes' homes, so no observer —
   and no crash at any protocol step — can see the entry in both
   directories or in neither. Distinct parents are still touched (and
   therefore write-intent-locked) in global-address order, ruling out
   deadlock between concurrent renames in opposite directions. *)
let rename t src dst =
  let* src_dir, src_name = parent_and_name t src in
  let* dst_dir, dst_name = parent_and_name t dst in
  let same = Gaddr.equal src_dir dst_dir in
  Client.txn t.client (fun txn ->
      let* ino_src, ino_dst =
        if same then
          let* ino = txn_read_inode t txn src_dir in
          Ok (ino, ino)
        else if Gaddr.compare src_dir dst_dir <= 0 then
          let* ino_src = txn_read_inode t txn src_dir in
          let* ino_dst = txn_read_inode t txn dst_dir in
          Ok (ino_src, ino_dst)
        else
          let* ino_dst = txn_read_inode t txn dst_dir in
          let* ino_src = txn_read_inode t txn src_dir in
          Ok (ino_src, ino_dst)
      in
      if ino_src.ikind <> Directory || ino_dst.ikind <> Directory then
        Error `Not_a_directory
      else
        let* src_entries = txn_read_dirents t txn ino_src in
        match List.find_opt (fun e -> e.name = src_name) src_entries with
        | None -> Error `Not_found
        | Some entry ->
          let* dst_entries =
            if same then Ok src_entries else txn_read_dirents t txn ino_dst
          in
          if List.exists (fun e -> e.name = dst_name) dst_entries then
            Error `Exists
          else if same then
            txn_write_dirents t txn src_dir ino_src
              ({ entry with name = dst_name }
               :: List.filter (fun e -> e.name <> src_name) src_entries)
          else
            let* () =
              txn_write_dirents t txn src_dir ino_src
                (List.filter (fun e -> e.name <> src_name) src_entries)
            in
            txn_write_dirents t txn dst_dir ino_dst
              ({ entry with name = dst_name } :: dst_entries))
