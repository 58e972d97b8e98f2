(* The end-to-end run: repeat passes over the workload for the
   measuring time and report, per leg, the sum over its operations of
   each operation's median time across passes.  Medians over
   interleaved passes keep a slow spell of the host, which hits one
   pass, out of the result.  Set-up is repeated between passes, so its
   median too is taken over the whole run. *)

type workload = Spec | Campaign | Serve

let workload_of_string = function
  | "spec" -> Some Spec
  | "campaign" -> Some Campaign
  | "serve" -> Some Serve
  | _ -> None

let min_passes = 2
let setups_first = 3
let setups_per_pass = 2

(* Passes start until [seconds] have gone by, and until there are
   [min_passes]. *)
let repeat ~seconds ~between pass =
  let t0 = Clock.now () in
  let rec go acc =
    let acc = pass () :: acc in
    between ();
    if List.length acc < min_passes || Clock.now () -. t0 < seconds then go acc
    else List.rev acc
  in
  go []

(* One pass: the wall time of each operation, keyed by leg and name. *)
let pass_fn workload ~seed ~out =
  match workload with
  | Spec ->
      let t = Spec_w.setup ~seed in
      fun () -> List.map (fun (r : Spec_w.record) -> ((r.leg, r.kernel), r.secs)) (Spec_w.pass t)
  | Campaign ->
      let t = Campaign_w.setup ~seed ~out in
      fun () -> Campaign_w.pass t
  | Serve ->
      let t = Serve_w.setup ~seed in
      fun () -> Serve_w.pass t

let setup_fn workload ~seed ~out () =
  match workload with
  | Spec -> ignore (Spec_w.setup ~seed)
  | Campaign -> ignore (Campaign_w.setup ~seed ~out)
  | Serve -> ignore (Serve_w.setup ~seed)

let run workload ~seed ~seconds ~out =
  let setup = setup_fn workload ~seed ~out in
  let setup_times = ref [] in
  let setups n =
    for _ = 1 to n do
      setup_times := snd (Clock.time setup) :: !setup_times
    done
  in
  setups setups_first;
  let pass = pass_fn workload ~seed ~out in
  let passes = repeat ~seconds ~between:(fun () -> setups setups_per_pass) pass in
  List.iteri
    (fun i p ->
      Printf.eprintf "pass %d:" (i + 1);
      List.iter
        (fun leg ->
          Printf.eprintf " %s %.3f" (Leg.name leg)
            (List.fold_left (fun a ((l, _), s) -> if l = leg then a +. s else a) 0. p))
        Leg.all;
      prerr_newline ())
    passes;
  let ops = List.map fst (List.hd passes) in
  let legs =
    List.map
      (fun leg ->
        let total =
          List.fold_left
            (fun acc ((l, _) as op) ->
              if l = leg then acc +. Sutil.Stats.median (List.map (List.assoc op) passes) else acc)
            0. ops
        in
        Metric.v (Leg.metric leg) "s" total)
      Leg.all
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  (Metric.v "setup_s" "s" (Sutil.Stats.median !setup_times) :: legs)
  @ [ Metric.v "peak_heap_mb" "MB" heap_mb ]
