type t =
  | Function_pass of { name : string; run : Prog.t -> Func.t -> unit }
  | Module_pass of { name : string; run : Prog.t -> unit }

let name = function Function_pass { name; _ } | Module_pass { name; _ } -> name

let run ?(verify = true) ?post passes prog =
  List.iter
    (fun pass ->
      (match pass with
      | Function_pass { run; _ } -> List.iter (run prog) prog.Prog.funcs
      | Module_pass { run; _ } -> run prog);
      if verify then
        match Verifier.verify prog with
        | [] -> ()
        | errors ->
            let report =
              String.concat "\n"
                (List.map (Format.asprintf "%a" Verifier.pp_error) errors)
            in
            failwith
              (Printf.sprintf "pass %s broke IR invariants:\n%s" (name pass) report))
    passes;
  (* Structural verification above answers "is this still well-formed
     IR?"; the post hook answers "does the transformed program satisfy
     the pipeline's semantic post-conditions?" — a distinct failure with
     a distinct message, so callers can tell a broken pass from a broken
     security property. *)
  match post with
  | None -> ()
  | Some check -> (
      match check prog with
      | Ok () -> ()
      | Error msg ->
          failwith
            (Printf.sprintf "pipeline post-condition validation failed:\n%s" msg))
