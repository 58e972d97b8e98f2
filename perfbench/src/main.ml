(* Host-time benchmark command.  Usage:

     main.exe --workload spec|campaign|serve --seed N --seconds S --trace 0|1 [--out DIR]

   Prints a human-readable table on stderr and, as the last line of
   stdout, one JSON object {correct, attempted, failed, metrics}.
   Exit code 1 when any output check failed, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload spec|campaign|serve --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let () =
  Engine.Backend.install ();
  Analysis.Validate.install ();
  let workload = ref None and seed = ref 0 and seconds = ref 10. and trace = ref false
  and out = ref ".bench_out" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := abs n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--out" :: d :: rest ->
        out := d;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload =
    match Option.bind !workload Pbench.E2e.workload_of_string with
    | Some w -> w
    | None -> usage ()
  in
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let seed = Int64.of_int !seed in
  let metrics =
    if !trace then Pbench.Traced.run workload ~seed ~out:!out
    else Pbench.E2e.run workload ~seed ~seconds:!seconds ~out:!out
  in
  List.iter
    (fun (m : Pbench.Metric.t) -> Printf.eprintf "%-40s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let correct = Pbench.Check.all_ok () in
  print_endline
    (Pbench.Metric.result_line ~correct ~attempted:!Pbench.Check.attempted
       ~failed:(Pbench.Check.failed_ops ()) metrics);
  exit (if correct then 0 else 1)
