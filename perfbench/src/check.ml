(* Output checks.  [attempted] counts the workload's operations (kernel
   runs, programs, sessions); a failed check marks [n] of them failed,
   is reported on stderr, and makes the command exit 1. *)

let attempted = ref 0
let failed = ref 0
let ops n = attempted := !attempted + n

(* The message is formatted only when the check fails. *)
let expect ?(n = 1) ok fmt =
  if ok then Printf.ifprintf () fmt
  else
    Printf.ksprintf
      (fun what ->
        failed := !failed + n;
        Printf.eprintf "CHECK FAILED: %s\n%!" what)
      fmt

let failed_ops () = min !failed !attempted
let all_ok () = !failed = 0 && !attempted > 0
