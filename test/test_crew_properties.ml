(* Property-based tests: random operation interleavings against the CREW
   machine must never violate concurrent-read-exclusive-write safety, and
   must stay live (every request eventually granted once conflicting locks
   drain); random interleavings of the eventual protocol must converge. *)

module H = Cm_harness
module Ctypes = Kconsistency.Types

let nodes = [ 0; 1; 2; 3 ]

(* One scripted step: a client action on a node, or delivering a random
   in-flight message. *)
type step = Deliver | Client of int * Ctypes.mode

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, return Deliver);
        ( 2,
          map2
            (fun n m -> Client (n, if m then Ctypes.Write else Ctypes.Read))
            (oneofl nodes) bool );
      ])

let print_step = function
  | Deliver -> "D"
  | Client (n, m) -> Printf.sprintf "C(%d,%s)" n (Ctypes.mode_to_string m)

(* Shrinking keeps the harness seed. It drops one step at a time, the last
   first (the steps after a violation go before any it may need), then
   turns one write into a read. *)
let shrink_steps steps yield =
  for i = List.length steps - 1 downto 0 do
    yield (List.filteri (fun j _ -> j <> i) steps)
  done;
  List.iteri
    (fun i -> function
      | Client (node, Ctypes.Write) ->
        yield
          (List.mapi
             (fun j s -> if j = i then Client (node, Ctypes.Read) else s)
             steps)
      | Client (_, Ctypes.Read) | Deliver -> ())
    steps

let arb_script =
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil shrink_steps)
    ~print:(fun (seed, steps) ->
      Printf.sprintf "seed=%d [%s]" seed
        (String.concat ";" (List.map print_step steps)))
    QCheck.Gen.(pair (int_range 0 10_000) (list_size (int_range 10 80) gen_step))

(* Execute a script. Each node holds at most one lock at a time; a Client
   step on a node releases a held lock (with data when it was a write) or
   issues a fresh request when idle. Returns the first safety violation. *)
let run_script ~protocol (seed, steps) =
  let h =
    H.create ~seed ~protocol ~home:0 ~min_replicas:1 ~nodes
      ~initial:(Bytes.of_string "init") ()
  in
  (* node -> Held (req, mode) | Waiting (req, mode) | Idle *)
  let status = Hashtbl.create 8 in
  let violation = ref None in
  let note v = if !violation = None then violation := v in
  let refresh_status () =
    Hashtbl.iter
      (fun node s ->
        match s with
        | `Waiting (req, mode) when H.is_granted h req ->
          Hashtbl.replace status node (`Held (req, mode))
        | `Waiting (req, _) when H.is_rejected h req ->
          Hashtbl.replace status node `Idle
        | _ -> ())
      (Hashtbl.copy status)
  in
  let step counter = function
    | Deliver ->
      if h.H.wire <> [] then ignore (H.deliver_random h)
    | Client (node, mode) -> (
      match Option.value (Hashtbl.find_opt status node) ~default:`Idle with
      | `Held (_, held_mode) ->
        let data =
          if held_mode = Ctypes.Write then
            Some (Bytes.of_string (Printf.sprintf "w%d.%d" node counter))
          else None
        in
        H.release h node held_mode ~data;
        Hashtbl.replace status node `Idle
      | `Waiting _ -> () (* still queued; leave it *)
      | `Idle ->
        let req = H.acquire h node mode in
        Hashtbl.replace status node (`Waiting (req, mode)))
  in
  List.iteri
    (fun i s ->
      step i s;
      refresh_status ();
      note (H.crew_invariant_violation h))
    steps;
  (* Liveness epilogue: release everything held, drain, and check that all
     waiting requests resolve. *)
  let rec settle rounds =
    refresh_status ();
    Hashtbl.iter
      (fun node s ->
        match s with
        | `Held (_, mode) ->
          H.release h node mode ~data:None;
          Hashtbl.replace status node `Idle
        | `Waiting _ | `Idle -> ())
      (Hashtbl.copy status);
    H.drain ~random:true h;
    refresh_status ();
    note (H.crew_invariant_violation h);
    let still_waiting =
      Hashtbl.fold
        (fun _ s acc -> match s with `Waiting _ -> acc + 1 | _ -> acc)
        status 0
    in
    if still_waiting > 0 && rounds > 0 then settle (rounds - 1)
    else if still_waiting > 0 then
      note (Some (Printf.sprintf "%d requests never resolved" still_waiting))
  in
  settle 8;
  !violation

let prop_crew_safety =
  QCheck.Test.make ~name:"crew: random interleavings stay safe and live"
    ~count:150 arb_script (fun script ->
      match run_script ~protocol:"crew" script with
      | None -> true
      | Some v -> QCheck.Test.fail_report v)

let prop_release_liveness =
  QCheck.Test.make ~name:"release: random interleavings stay live" ~count:100
    arb_script (fun script ->
      (* Release consistency permits concurrent reader+writer, so only the
         liveness half of the oracle applies. *)
      match run_script ~protocol:"release" script with
      | None -> true
      | Some v ->
        if
          String.length v >= 6
          && String.sub v (String.length v - 14) 14 = "never resolved"
        then QCheck.Test.fail_report v
        else true)

(* The optimistic protocols (eventual, versioned, write-shared): after any
   interleaving plus anti-entropy, all replicas converge to one version.
   Versions, not bytes, are compared: the harness only records installs,
   and the home's untouched initial image is never installed. *)
let prop_convergence protocol =
  QCheck.Test.make ~name:(protocol ^ ": replicas converge") ~count:100
    arb_script (fun (seed, steps) ->
      let h =
        H.create ~seed ~protocol ~home:0 ~min_replicas:1 ~nodes
          ~initial:(Bytes.of_string "init") ()
      in
      let held = Hashtbl.create 8 in
      List.iteri
        (fun i s ->
          match s with
          | Deliver -> if h.H.wire <> [] then ignore (H.deliver_random h)
          | Client (node, mode) -> (
            match Hashtbl.find_opt held node with
            | Some held_mode ->
              let data =
                if held_mode = Ctypes.Write then
                  Some (Bytes.of_string (Printf.sprintf "e%d.%d" node i))
                else None
              in
              H.release h node held_mode ~data;
              Hashtbl.remove held node
            | None ->
              let req = H.acquire h node mode in
              H.drain ~random:true h;
              if H.is_granted h req then Hashtbl.replace held node mode))
        steps;
      Hashtbl.iter (fun node mode -> H.release h node mode ~data:None) held;
      H.drain ~random:true h;
      for _ = 1 to 6 do
        H.fire_all_timers h;
        H.drain ~random:true h
      done;
      (* Convergence over nodes that hold a copy. *)
      let holders = List.filter (fun n -> H.has_copy h n) nodes in
      match holders with
      | [] -> true
      | first :: rest ->
        let v = H.version h first in
        List.for_all (fun n -> H.version h n = v) rest)

(* An adversarial network: random message LOSS, timers firing (the home's
   retry and fail-over machinery kicks in) and, with [dup], DUPLICATES.
   [check] runs after every step and its first complaint is the result.
   A heal phase then releases held locks, drains and fires timers until
   the run is quiet, and [check_healed] judges the settled state. Without
   [dup] the draws are those of the original lossy property, which the
   pinned regressions below replay. *)
let run_lossy ~protocol ?(dup = false) ?(check = fun _ -> None)
    ?(check_healed = fun _ -> None) (seed, steps) =
  let h =
    H.create ~seed ~protocol ~home:0 ~min_replicas:1 ~nodes
      ~initial:(Bytes.of_string "init") ()
  in
  let rng = Kutil.Rng.create ~seed:(seed + 77) in
  let status = Hashtbl.create 8 in
  let violation = ref None in
  let note v = if !violation = None then violation := v in
  let refresh () =
    Hashtbl.iter
      (fun node s ->
        match s with
        | `Waiting (req, mode) when H.is_granted h req ->
          Hashtbl.replace status node (`Held (req, mode))
        | `Waiting (req, _) when H.is_rejected h req ->
          Hashtbl.replace status node `Idle
        | _ -> ())
      (Hashtbl.copy status)
  in
  let release_held () =
    Hashtbl.iter
      (fun node s ->
        match s with
        | `Held (_, mode) ->
          H.release h node mode ~data:None;
          Hashtbl.replace status node `Idle
        | `Waiting _ | `Idle -> ())
      (Hashtbl.copy status)
  in
  List.iteri
    (fun i s ->
      (match s with
       | Deliver ->
         if h.H.wire <> [] then begin
           (* 25% of deliveries are losses; occasionally a timer fires. *)
           if Kutil.Rng.int rng 4 = 0 then h.H.wire <- List.tl h.H.wire
           else if dup && Kutil.Rng.int rng 4 = 0 then H.duplicate_random h
           else ignore (H.deliver_random h)
         end
         else H.fire_all_timers h
       | Client (node, mode) -> (
         match Option.value (Hashtbl.find_opt status node) ~default:`Idle with
         | `Held (_, held_mode) ->
           let data =
             if held_mode = Ctypes.Write then
               Some (Bytes.of_string (Printf.sprintf "l%d.%d" node i))
             else None
           in
           H.release h node held_mode ~data;
           Hashtbl.replace status node `Idle
         | `Waiting _ -> ()
         | `Idle ->
           let req = H.acquire h node mode in
           Hashtbl.replace status node (`Waiting (req, mode))));
      if Kutil.Rng.int rng 10 = 0 then H.fire_all_timers h;
      refresh ();
      note (check h))
    steps;
  for _ = 1 to 10 do
    release_held ();
    H.drain ~random:true h;
    H.fire_all_timers h;
    H.drain ~random:true h;
    refresh ();
    note (check h)
  done;
  note (check_healed h);
  !violation

let report = function None -> true | Some v -> QCheck.Test.fail_report v

(* CREW safety must survive the adversarial network. Liveness is excluded:
   lost grants legitimately strand requests until daemon-level retries,
   which are outside the machine. *)
let prop_crew_safety_under_loss =
  QCheck.Test.make ~name:"crew: safety holds under message loss + timeouts"
    ~count:100 arb_script (fun script ->
      report
        (run_lossy ~protocol:"crew" ~dup:true ~check:H.crew_invariant_violation
           script))

(* Release under the same network: no node's version ever goes backwards,
   and once the run heals every copy holds the home's image. *)
let prop_release_converges_under_faults =
  QCheck.Test.make
    ~name:"release: copies converge under loss, duplication + timeouts"
    ~count:200 arb_script (fun script ->
      let seen = Hashtbl.create 8 in
      let monotonic h =
        List.find_map
          (fun n ->
            let v = H.version h n and before = Hashtbl.find_opt seen n in
            Hashtbl.replace seen n v;
            match before with
            | Some b when v < b ->
              Some (Printf.sprintf "n%d went back from version %d to %d" n b v)
            | Some _ | None -> None)
          nodes
      in
      let image h n =
        Option.map Bytes.to_string
          (match H.installed_data h n with
           | Some d -> Some d
           | None -> if n = 0 then Some (Bytes.of_string "init") else None)
      in
      let converged h =
        List.find_map
          (fun n ->
            if H.has_copy h n && image h n <> image h 0 then
              Some
                (Printf.sprintf "n%d holds %s at v%d, the home %s at v%d" n
                   (Option.value (image h n) ~default:"-")
                   (H.version h n)
                   (Option.value (image h 0) ~default:"-")
                   (H.version h 0))
            else None)
          nodes
      in
      report
        (run_lossy ~protocol:"release" ~dup:true ~check:monotonic
           ~check_healed:converged script))

(* Shrunk failures of the lossy CREW property, replayed exactly. *)
let test_crew_lossy_regressions () =
  List.iter
    (fun (seed, script) ->
      let steps =
        List.map
          (function
            | "D" -> Deliver
            | s -> Scanf.sscanf s "C(%d,%s@)" (fun n m ->
                Client (n, if m = "write" then Ctypes.Write else Ctypes.Read)))
          (String.split_on_char ';' script)
      in
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d" seed) None
        (run_lossy ~protocol:"crew" ~check:H.crew_invariant_violation
           (seed, steps)))
    [
      (* A retried Fetch_own reached the home's cache role after ownership
         had moved on; its unfenced "no copy" answer overtook the home's
         next read grant to itself and dropped it from the copyset, so
         n3's next write was upgraded in place beside the home's reader. *)
      ( 9268,
        "C(1,read);C(3,write);D;D;D;C(0,read);C(1,read);C(2,read);D;D;D;\
         C(1,read);C(2,read);D;D;D;C(3,read);D;D;C(0,read);D;D;D;D;C(0,read);\
         C(3,write);C(3,read);D;C(3,read);D;D;D;C(1,read);C(3,read);D;D;\
         C(0,read)" );
    ]

(* Write-shared: any interleaving of disjoint-range writers converges, and
   nobody's byte is lost. Each node owns byte [node] of a 4-byte page and
   only ever writes there, so the final page must reflect every node's
   last committed write. *)
let prop_wshared_disjoint_no_lost_updates =
  QCheck.Test.make ~name:"wshared: disjoint writers lose nothing" ~count:100
    arb_script (fun (seed, steps) ->
      let h =
        H.create ~seed ~protocol:"wshared" ~home:0 ~min_replicas:1 ~nodes
          ~initial:(Bytes.make 4 '.') ()
      in
      let held = Hashtbl.create 8 in
      let committed = Hashtbl.create 8 in
      List.iteri
        (fun i s ->
          match s with
          | Deliver -> if h.H.wire <> [] then ignore (H.deliver_random h)
          | Client (node, mode) -> (
            match Hashtbl.find_opt held node with
            | Some Ctypes.Write ->
              (* Commit a fresh byte into our slot, reading the current
                 local replica first (as a real client under a lock
                 would). *)
              let c = Char.chr (Char.code 'a' + ((node + i) mod 26)) in
              let base =
                Option.value (H.installed_data h node)
                  ~default:(Bytes.make 4 '.')
              in
              let page = Bytes.copy base in
              Bytes.set page node c;
              H.release h node Ctypes.Write ~data:(Some page);
              Hashtbl.replace committed node c;
              Hashtbl.remove held node
            | Some Ctypes.Read ->
              H.release h node Ctypes.Read ~data:None;
              Hashtbl.remove held node
            | None ->
              let req = H.acquire h node mode in
              H.drain ~random:true h;
              if H.is_granted h req then Hashtbl.replace held node mode))
        steps;
      (* Release stragglers without writing, then converge. *)
      Hashtbl.iter (fun node mode -> H.release h node mode ~data:None) held;
      H.drain ~random:true h;
      for _ = 1 to 8 do
        H.fire_all_timers h;
        H.drain ~random:true h
      done;
      (* The home's copy must contain every node's last committed byte. *)
      match H.installed_data h 0 with
      | None -> Hashtbl.length committed = 0
      | Some page ->
        Hashtbl.fold
          (fun node c acc -> acc && Bytes.get page node = c)
          committed true)

let () =
  Alcotest.run "crew-properties"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_crew_safety; prop_release_liveness;
            prop_convergence "eventual"; prop_crew_safety_under_loss;
            prop_wshared_disjoint_no_lost_updates;
            prop_convergence "versioned"; prop_convergence "wshared";
            prop_release_converges_under_faults;
          ] );
      ( "regression",
        [ Alcotest.test_case "crew lossy scripts" `Quick test_crew_lossy_regressions ] );
    ]
