open Pbench
module J = Sutil.Json

(* ---- span self time ------------------------------------------------ *)

let test_self_time () =
  let self = Span.self_time ~lo:0 ~hi:100 in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint children" 70 (self [ (10, 20); (40, 60) ]);
  Alcotest.(check int) "overlap counted once" 60 (self [ (10, 30); (20, 50) ]);
  Alcotest.(check int) "nested child inside child" 80 (self [ (10, 30); (15, 20) ]);
  Alcotest.(check int) "clipped to the parent" 80 (self [ (-20, 10); (90, 130) ]);
  Alcotest.(check int) "touching children" 70 (self [ (10, 20); (20, 30); (30, 40) ]);
  Alcotest.(check int) "fully covered" 0 (self [ (0, 60); (50, 100) ])

let test_recorder () =
  let t = Span.create () in
  Span.set_run t 7;
  Span.with_ t "parent" (fun () ->
      Span.with_ t "child" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
      Span.with_ t "child" (fun () -> ()));
  let self = Span.self_ns t in
  let parent = List.hd (Span.select t "parent") in
  let children = Span.select t "child" in
  Alcotest.(check int) "two children" 2 (List.length children);
  List.iter (fun i -> Alcotest.(check int) "child's parent" parent (Span.parent_of t i)) children;
  Alcotest.(check int) "run id recorded" 7 (Span.run_of t parent);
  let child_ns = List.fold_left (fun a i -> a + Span.duration_ns t i) 0 children in
  Alcotest.(check int) "parent self = duration - children" (Span.duration_ns t parent - child_ns)
    self.(parent);
  List.iter (fun i -> Alcotest.(check int) "leaf self = duration" (Span.duration_ns t i) self.(i)) children;
  Alcotest.(check int) "select by run" 0 (List.length (Span.select ~run:(fun r -> r <> 7) t "child"));
  Alcotest.(check int) "count by run" 2 (Span.count_by_run t 7 "child")

let test_recorder_exception () =
  let t = Span.create () in
  (try Span.with_ t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Span.with_ t "after" (fun () -> ());
  let after = List.hd (Span.select t "after") in
  Alcotest.(check int) "one span recorded for the failed call" 1
    (List.length (Span.select t "boom"));
  Alcotest.(check int) "the span was closed: the next span is a root" (-1) (Span.parent_of t after)

(* ---- percentile rule --------------------------------------------- *)

let test_tail_percentile () =
  let check n expect =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "n = %d" n) expect (Stats.tail_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 50.);
  check 99 (Some 50.);
  check 100 (Some 90.);
  check 199 (Some 90.);
  check 200 (Some 95.);
  check 999 (Some 95.);
  check 1000 (Some 99.);
  check 9999 (Some 99.);
  check 10000 (Some 99.9)

let test_tail_of () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  match Stats.tail_of xs with
  | None -> Alcotest.fail "100 samples have a tail"
  | Some t ->
      Alcotest.(check (float 0.)) "median (nearest rank)" 50. t.p50;
      Alcotest.(check (float 0.)) "p90" 90. t.tail;
      Alcotest.(check (float 0.)) "percentile used" 90. t.tail_pct;
      Alcotest.(check int) "sample count" 100 t.samples;
      Alcotest.(check bool) "ten samples beyond the tail" true
        (List.length (List.filter (fun x -> x > t.tail) xs) >= 10)

(* ---- metric names ------------------------------------------------- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "setup_s"; "spec.proftpd-io.ref.hardened_ms"; "0x"; "a.b_c-d"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Metric.valid_name n))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a%"; String.make 65 'a'; "caf\xc3\xa9" ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Metric.valid_unit u))
    [ "ms"; "s"; "1/s"; "Mi/s"; "%"; "count"; "MB" ];
  List.iter
    (fun u -> Alcotest.(check bool) (Printf.sprintf "%S" u) false (Metric.valid_unit u))
    [ ""; "m s"; String.make 17 'a' ];
  Alcotest.check_raises "Metric.v refuses a bad name" (Invalid_argument "Metric.v: bad name a b")
    (fun () -> ignore (Metric.v "a b" "s" 1.))

let test_result_line () =
  let line =
    Metric.result_line ~correct:true ~attempted:3 ~failed:0
      [ Metric.v "a_s" "s" 0.1; Metric.v "n" "count" 12. ]
  in
  match J.of_string line with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (match j with J.Obj kv -> List.map fst kv | _ -> []);
      let v =
        Option.bind (J.member "metrics" j) (J.member "a_s")
        |> Fun.flip Option.bind (J.member "value")
        |> Fun.flip Option.bind J.to_float_opt
      in
      Alcotest.(check (option (float 0.))) "value round-trips" (Some 0.1) v

(* ---- BENCHMARK.json and layers.json ------------------------------ *)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" path e

let bench = lazy (read "../../BENCHMARK.json")
let layers = lazy (read "../layers.json")
let field k j = match J.member k j with Some v -> v | None -> Alcotest.failf "missing %s" k
let str k j = match J.to_str_opt (field k j) with Some s -> s | None -> Alcotest.failf "%s: not a string" k
let keys = function J.Obj kv -> List.map fst kv | _ -> []
let names section = List.map (str "name") (J.to_list (field section (Lazy.force bench)))

let test_bench_shape () =
  let b = Lazy.force bench in
  Alcotest.(check (list string)) "top-level keys"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    (keys b);
  List.iter
    (fun w ->
      Alcotest.(check (list string)) "workload keys" [ "name"; "why" ] (keys w);
      let why = str "why" w in
      Alcotest.(check bool) (str "name" w ^ " has a one-line reason") true
        (String.length why > 0 && String.length why <= 200 && not (String.contains why '\n')))
    (J.to_list (field "workloads" b));
  let all = names "end_to_end" @ names "per_layer" in
  List.iter (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Metric.valid_name n)) all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  let e2e = J.to_list (field "end_to_end" b) in
  let bound m = Option.get (J.to_float_opt (field "bound" m)) in
  let setup = List.find (fun m -> str "name" m = "setup_s") e2e in
  Alcotest.(check string) "setup_s unit" "s" (str "unit" setup);
  Alcotest.(check string) "setup_s lower" "lower" (str "better" setup);
  List.iter
    (fun m ->
      Alcotest.(check bool) (str "name" m ^ " bound in (0, 0.25]") true
        (bound m > 0. && bound m <= 0.25);
      Alcotest.(check bool) (str "name" m ^ " bound <= setup_s bound") true
        (bound m <= bound setup))
    e2e

(* Every per-layer metric names the end-to-end metrics it should move,
   and each target is a workload and end-to-end metric that exist. *)
let test_layer_targets () =
  let l = field "metrics" (Lazy.force layers) in
  let per_layer = names "per_layer" in
  Alcotest.(check (list string)) "layers.json lists exactly the per-layer metrics"
    (List.sort compare per_layer) (List.sort compare (keys l));
  let workloads = names "workloads" and e2e = names "end_to_end" in
  let valid_target t =
    match String.index_opt t ':' with
    | None -> false
    | Some i ->
        List.mem (String.sub t 0 i) workloads
        && List.mem (String.sub t (i + 1) (String.length t - i - 1)) e2e
  in
  List.iter
    (fun name ->
      let entry = field name l in
      let targets k = List.filter_map J.to_str_opt (J.to_list (field k entry)) in
      let moves = targets "moves" in
      List.iter
        (fun t -> Alcotest.(check bool) (name ^ " -> " ^ t) true (valid_target t))
        (moves @ targets "steady");
      (* Only metrics about the benchmark itself move nothing. *)
      if moves = [] then
        Alcotest.(check bool) (name ^ " moves no end-to-end metric") true
          (List.mem (str "layer" entry) [ "trace"; "counts"; "sched" ]))
    per_layer

let () =
  Alcotest.run "pbench"
    [
      ( "span",
        [
          Alcotest.test_case "self time arithmetic" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "recorder closes on exception" `Quick test_recorder_exception;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "tail of samples" `Quick test_tail_of;
        ] );
      ( "metric",
        [
          Alcotest.test_case "name and unit character sets" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "benchmark.json",
        [
          Alcotest.test_case "shape, reasons and bounds" `Quick test_bench_shape;
          Alcotest.test_case "per-layer targets" `Quick test_layer_targets;
        ] );
    ]
