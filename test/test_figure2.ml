(* Figure 2 reproduction: the message sequence behind a cold <lock, fetch>
   of page p at node A when node B owns the page.

   Paper steps:
     1      A obtains the region descriptor for p's enclosing region
     2,3    (optional) via an address-map lookup
     4      p is looked up in the page directory
     5      the CM is invoked to grant the lock
     6      the CM asks its peer on B for credentials
     7,8,9  B's CM directs its daemon to supply a copy of p to A
     10     ownership/credentials granted to A
     11     A's CM grants the lock
     12,13  A supplies the locked copy to the requestor from local storage

   The wire-visible part of that flow here, for a cold write-mode lock with
   home/owner on B, is:
     cluster_lookup / map-page reads  (steps 1-3)
     cm.write_req   A -> B            (step 6)
     cm.fetch_own   B -> B            (steps 7,8: CM directs local daemon)
     cm.own_grant   B -> A            (steps 9,10)
     cm.done        A -> B            (completion ack)
   after which the lock is granted locally (11) and the read served from
   local storage (12,13). *)

module System = Khazana.System
module Client = Khazana.Client
module Region = Khazana.Region
module Ctypes = Kconsistency.Types

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "daemon error: %s" (Khazana.Daemon.error_to_string e)

type ev = { src : int; dst : int; kind : string }

let record_trace sys =
  let events = ref [] in
  Khazana.Wire.Transport.Net.set_trace (System.net sys)
    (fun _time ~src ~dst msg ->
      events := { src; dst; kind = Khazana.Wire.Transport.Msg.kind msg } :: !events);
  fun () -> List.rev !events

let index_of events p =
  let rec go i = function
    | [] -> None
    | e :: rest -> if p e then Some i else go (i + 1) rest
  in
  go 0 events

let test_lock_fetch_sequence () =
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let node_a = 4 and node_b = 1 in
  let cb = System.client sys node_b () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region cb 4096) in
        (* B writes, making it unambiguous owner with private data. *)
        ok (Client.write_bytes cb ~addr:r.Region.base (Bytes.of_string "owned by B"));
        r)
  in
  let get_events = record_trace sys in
  let ca = System.client sys node_a () in
  let addr = region.Region.base in
  System.run_fiber sys (fun () ->
      (* The <lock, fetch> pair: write lock + read under it. *)
      let ctx = ok (Client.lock ca ~addr ~len:10 Ctypes.Write) in
      let b = ok (Client.read ca ctx ~addr ~len:10) in
      Alcotest.(check string) "step 12-13: data served locally" "owned by B"
        (Bytes.to_string b);
      Client.unlock ca ctx);
  let events = get_events () in
  let find name p =
    match index_of events p with
    | Some i -> i
    | None ->
      Alcotest.failf "missing %s in trace: %s" name
        (String.concat ", "
           (List.map (fun e -> Printf.sprintf "n%d->n%d %s" e.src e.dst e.kind) events))
  in
  let descriptor_step =
    find "descriptor lookup"
      (fun e ->
        e.src = node_a
        && (e.kind = "cluster_lookup" || e.kind = "get_descriptor"
           || e.kind = "cm.read_req"))
  in
  let write_req =
    find "cm.write_req A->B" (fun e ->
        e.kind = "cm.write_req" && e.src = node_a && e.dst = node_b)
  in
  let fetch_own =
    find "cm.fetch_own B->B" (fun e ->
        e.kind = "cm.fetch_own" && e.src = node_b && e.dst = node_b)
  in
  let own_grant =
    find "cm.own_grant B->A" (fun e ->
        e.kind = "cm.own_grant" && e.src = node_b && e.dst = node_a)
  in
  let done_ack =
    find "cm.done A->B" (fun e ->
        e.kind = "cm.done" && e.src = node_a && e.dst = node_b)
  in
  Alcotest.(check bool) "1 before 6" true (descriptor_step < write_req);
  Alcotest.(check bool) "6 before 7/8" true (write_req < fetch_own);
  Alcotest.(check bool) "7/8 before 9/10" true (fetch_own < own_grant);
  Alcotest.(check bool) "9/10 before ack" true (own_grant < done_ack)

let test_read_variant_uses_fetch () =
  (* Same flow with a read lock: Fetch instead of Fetch_own, Read_grant
     instead of Own_grant, and B keeps its copy. *)
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let node_a = 4 and node_b = 1 in
  let cb = System.client sys node_b () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region cb 4096) in
        ok (Client.write_bytes cb ~addr:r.Region.base (Bytes.of_string "data"));
        r)
  in
  let get_events = record_trace sys in
  let ca = System.client sys node_a () in
  System.run_fiber sys (fun () ->
      ignore (ok (Client.read_bytes ca ~addr:region.Region.base 4)));
  let events = get_events () in
  Alcotest.(check bool) "read_req used" true
    (List.exists (fun e -> e.kind = "cm.read_req" && e.src = node_a) events);
  Alcotest.(check bool) "read_grant to A" true
    (List.exists (fun e -> e.kind = "cm.read_grant" && e.dst = node_a) events);
  Alcotest.(check bool) "no ownership transfer" false
    (List.exists (fun e -> e.kind = "cm.own_grant" || e.kind = "cm.fetch_own") events);
  Alcotest.(check bool) "B keeps its copy" true
    (Khazana.Daemon.holds_page (System.daemon sys node_b) region.Region.base)

let test_warm_lock_needs_no_messages () =
  (* Steps 2-3 are optional, and a node that already owns the page skips
     the wire entirely: lock+read resolve from local state. *)
  let sys = System.create ~nodes_per_cluster:3 ~clusters:2 () in
  let c = System.client sys 1 () in
  let region =
    System.run_fiber sys (fun () ->
        let r = ok (Client.create_region c 4096) in
        ok (Client.write_bytes c ~addr:r.Region.base (Bytes.of_string "mine"));
        r)
  in
  let get_events = record_trace sys in
  System.run_fiber sys (fun () ->
      ignore (ok (Client.read_bytes c ~addr:region.Region.base 4)));
  let cm_events =
    List.filter
      (fun e -> String.length e.kind >= 3 && String.sub e.kind 0 3 = "cm.")
      (get_events ())
  in
  Alcotest.(check (list string)) "no CM traffic for a warm local lock" []
    (List.map (fun e -> e.kind) cm_events)

let () =
  Alcotest.run "figure2"
    [
      ( "lock+fetch",
        [
          Alcotest.test_case "write sequence (fig. 2)" `Quick test_lock_fetch_sequence;
          Alcotest.test_case "read variant" `Quick test_read_variant_uses_fetch;
          Alcotest.test_case "warm lock is silent" `Quick test_warm_lock_needs_no_messages;
        ] );
    ]
