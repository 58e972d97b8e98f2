(* Tracing from outside the program: a backend wrapper that records a
   span around each VM run and, inside it, one span per Smokestack
   runtime intrinsic call.  Both engines look intrinsics up in the
   state's table at call time, so re-registering timing wrappers
   through [Machine.Exec.register_intrinsic] after the runtime is
   installed traces either engine. *)

let intrinsics =
  Smokestack.Abi.[ intr_rand; intr_pad; intr_fid_key; intr_fid_assert; intr_layout_dynamic ]

let intrinsic_span name = "runtime." ^ name

let run_span = function
  | Machine.Backend.Reference -> "machine.run"
  | Machine.Backend.Bytecode -> "engine.run"

let wrap_intrinsics spans (st : Machine.Exec.state) =
  List.iter
    (fun name ->
      match Hashtbl.find_opt st.Machine.Exec.intrinsics name with
      | None -> ()
      | Some f ->
          let id = Span.intern spans (intrinsic_span name) in
          Machine.Exec.register_intrinsic st name (fun st args ->
              Span.with_id spans id (fun () -> f st args)))
    intrinsics

let backend spans (b : Machine.Backend.t) =
  let id = Span.intern spans (run_span b.kind) in
  let run ?fuel ?entry ?args st =
    wrap_intrinsics spans st;
    Span.with_id spans id (fun () -> b.run ?fuel ?entry ?args st)
  in
  { b with Machine.Backend.run }

(* [f] inside a span when tracing, bare otherwise. *)
let span spans label f =
  match spans with None -> f () | Some t -> Span.with_ t label f

let traced_backend spans b =
  match spans with None -> b | Some t -> backend t b
