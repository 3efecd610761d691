(* A hand-coded central-server file service: the conventional design
   Khazana's filesystem is compared against in E7. One server node keeps
   all files; every client operation is an RPC. No caching, no
   replication — fast and simple on a LAN, a bottleneck and a single point
   of failure otherwise. *)

module Proto = struct
  type request =
    | Create of string
    | Write of { path : string; off : int; data : bytes }
    | Read of { path : string; off : int; len : int }
    | Readdir
    | Size of string

  type response =
    | R_unit
    | R_data of bytes
    | R_names of string list
    | R_size of int
    | R_err of string

  module Codec = Kutil.Codec

  let encode_request enc = function
    | Create p ->
      Codec.u8 enc 0;
      Codec.string enc p
    | Write { path; off; data } ->
      Codec.u8 enc 1;
      Codec.string enc path;
      Codec.int enc off;
      Codec.bytes enc data
    | Read { path; off; len } ->
      Codec.u8 enc 2;
      Codec.string enc path;
      Codec.int enc off;
      Codec.int enc len
    | Readdir -> Codec.u8 enc 3
    | Size p ->
      Codec.u8 enc 4;
      Codec.string enc p

  let encode_response enc = function
    | R_unit -> Codec.u8 enc 0
    | R_data b ->
      Codec.u8 enc 1;
      Codec.bytes enc b
    | R_names ns ->
      Codec.u8 enc 2;
      Codec.list enc (Codec.string enc) ns
    | R_size n ->
      Codec.u8 enc 3;
      Codec.int enc n
    | R_err e ->
      Codec.u8 enc 4;
      Codec.string enc e

  let request_kind = function
    | Create _ -> "cfs.create"
    | Write _ -> "cfs.write"
    | Read _ -> "cfs.read"
    | Readdir -> "cfs.readdir"
    | Size _ -> "cfs.size"
end

module T = Krpc.Rpc.Make (Proto)

type t = { transport : T.t; server : Knet.Topology.node_id }

(* The server charges a per-op local storage cost comparable to Khazana's
   RAM tier, so comparisons are about *distribution*, not disk models. *)
let server_op_cost = Ksim.Time.us 10

let start_server engine topology ~server =
  let transport = T.create engine topology in
  let files : (string, bytes ref) Hashtbl.t = Hashtbl.create 64 in
  T.set_server transport server (fun ~src:_ ~span:_ req ~reply ->
      Ksim.Fiber.spawn engine ~name:"cfs-serve" (fun () ->
          Ksim.Fiber.sleep server_op_cost;
          match req with
          | Proto.Create path ->
            if Hashtbl.mem files path then reply (Proto.R_err "exists")
            else begin
              Hashtbl.replace files path (ref Bytes.empty);
              reply Proto.R_unit
            end
          | Proto.Write { path; off; data } -> (
            match Hashtbl.find_opt files path with
            | None -> reply (Proto.R_err "not found")
            | Some content ->
              let needed = off + Bytes.length data in
              if Bytes.length !content < needed then begin
                let grown = Bytes.make needed '\000' in
                Bytes.blit !content 0 grown 0 (Bytes.length !content);
                content := grown
              end;
              Bytes.blit data 0 !content off (Bytes.length data);
              reply Proto.R_unit)
          | Proto.Read { path; off; len } -> (
            match Hashtbl.find_opt files path with
            | None -> reply (Proto.R_err "not found")
            | Some content ->
              let avail = max 0 (Bytes.length !content - off) in
              reply (Proto.R_data (Bytes.sub !content off (min len avail))))
          | Proto.Readdir ->
            reply
              (Proto.R_names
                 (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) files [])))
          | Proto.Size path -> (
            match Hashtbl.find_opt files path with
            | None -> reply (Proto.R_err "not found")
            | Some content -> reply (Proto.R_size (Bytes.length !content)))));
  { transport; server }

let call t ~src req =
  match T.call t.transport ~src ~dst:t.server ~policy:(Krpc.Policy.with_timeout (Ksim.Time.sec 5)) req with
  | Ok r -> r
  | Error (`Timeout | `Unreachable) -> Proto.R_err "timeout"

let create t ~src path =
  match call t ~src (Proto.Create path) with
  | Proto.R_unit -> ()
  | _ -> failwith "cfs create failed"

let write t ~src path ~off data =
  match call t ~src (Proto.Write { path; off; data }) with
  | Proto.R_unit -> ()
  | _ -> failwith "cfs write failed"

let read t ~src path ~off ~len =
  match call t ~src (Proto.Read { path; off; len }) with
  | Proto.R_data b -> b
  | _ -> failwith "cfs read failed"

let readdir t ~src =
  match call t ~src Proto.Readdir with
  | Proto.R_names ns -> ns
  | _ -> failwith "cfs readdir failed"
