open Effect
open Effect.Deep

exception Fiber_failure of string * exn

let () =
  Printexc.register_printer (function
    | Fiber_failure (name, inner) ->
      Some
        (Printf.sprintf "Fiber_failure(%s: %s)" name (Printexc.to_string inner))
    | _ -> None)

type _ Effect.t +=
  | Sleep : Engine.t * Time.t -> unit Effect.t
  | Await : ('a Promise.t) -> 'a Effect.t

(* The engine a fiber runs on is threaded through the handler environment:
   [current_engine] is only valid while fiber code is executing. The
   save/restore wrapper sits *outside* [match_with] / [continue]: when the
   fiber suspends, control returns normally out of those calls and the
   restore fires, so the ref never dangles across a suspension (a protect
   inside the fiber's own stack would be captured by the continuation and
   deferred instead). It runs on every suspension and resumption, so it
   is a plain match, and [cur] (the engine as an option) is built once per
   fiber. *)
let current_engine : Engine.t option ref = ref None

let engine_now () =
  match !current_engine with
  | Some eng -> eng
  | None -> failwith "Fiber: blocking call outside of a fiber"

let with_engine cur seg =
  let saved = !current_engine in
  current_engine := cur;
  match seg () with
  | () -> current_engine := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    current_engine := saved;
    Printexc.raise_with_backtrace e bt

let run_fiber eng name f =
  let cur = Some eng in
  let on_exn e = raise (Fiber_failure (name, e)) in
  let handler =
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          match e with Fiber_failure _ -> raise e | e -> on_exn e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sleep (eng, d) ->
            Some
              (fun (k : (b, unit) continuation) ->
                ignore
                  (Engine.schedule eng ~after:d (fun () ->
                       with_engine cur (fun () -> continue k ()))))
          | Await p ->
            Some
              (fun (k : (b, unit) continuation) ->
                Promise.on_resolve p (fun v ->
                    with_engine cur (fun () -> continue k v)))
          | _ -> None);
    }
  in
  with_engine cur (fun () -> match_with f () handler)

let spawn eng ?(name = "fiber") f =
  ignore (Engine.schedule eng ~after:0 (fun () -> run_fiber eng name f))

let spawn_after eng ~after ?(name = "fiber") f =
  ignore (Engine.schedule eng ~after (fun () -> run_fiber eng name f))

let sleep d = perform (Sleep (engine_now (), d))
let yield () = sleep 0

let await p =
  match Promise.peek p with Some v -> v | None -> perform (Await p)

let await_timeout eng p ~timeout =
  match Promise.peek p with
  | Some v -> Some v
  | None ->
    let race = Promise.create () in
    Promise.on_resolve p (fun v -> ignore (Promise.try_resolve race (Some v)));
    let timer =
      Engine.schedule eng ~after:timeout (fun () ->
          ignore (Promise.try_resolve race None))
    in
    let result = await race in
    Engine.cancel timer;
    result

let join_all promises = List.iter await promises

let async eng ?(name = "fiber") f =
  let p = Promise.create () in
  spawn eng ~name (fun () -> Promise.resolve p (f ()));
  p
