(* Tests for the experiment harness: the properties each paper artifact
   must exhibit, on reduced workload subsets to stay fast. *)

let subset names =
  List.filter_map Apps.Spec.find names

(* ------------------------------------------------------------------ *)
(* Table I *)

let test_randrate_matches_table1 () =
  let t = Harness.Randrate.run ~draws:20_000 () in
  List.iter
    (fun (r : Harness.Randrate.row) ->
      let paper =
        List.assoc (Rng.Scheme.name r.scheme) Harness.Randrate.paper_values
      in
      Alcotest.(check (float 0.5))
        (Rng.Scheme.name r.scheme)
        paper r.cycles_per_draw)
    t.rows

(* ------------------------------------------------------------------ *)
(* Figure 3 *)

let fig3 =
  lazy (Harness.Overhead.run ~workloads:(subset [ "gobmk"; "mcf"; "sjeng"; "wireshark-io" ]) ())

let test_overhead_scheme_ordering () =
  let t = Lazy.force fig3 in
  List.iter
    (fun (r : Harness.Overhead.row) ->
      let v s = List.assoc s r.by_scheme in
      let open Rng.Scheme in
      Alcotest.(check bool)
        (r.workload ^ ": RDRAND >= AES-10 >= AES-1 >= pseudo")
        true
        (v Rdrand >= v aes10 && v aes10 >= v aes1 && v aes1 >= v Pseudo))
    t.rows

let test_overhead_call_density_dominates () =
  let t = Lazy.force fig3 in
  let get name =
    List.find (fun (r : Harness.Overhead.row) -> r.workload = name) t.rows
  in
  let aes10 r = List.assoc Rng.Scheme.aes10 r.Harness.Overhead.by_scheme in
  Alcotest.(check bool) "gobmk (call-dense) >> mcf (loop-dominated)" true
    (aes10 (get "gobmk") > 10. *. Float.max 0.1 (aes10 (get "mcf")))

let test_overhead_io_modest () =
  let t = Lazy.force fig3 in
  let ws = List.find (fun (r : Harness.Overhead.row) -> r.kind = `Io) t.rows in
  Alcotest.(check bool) "I/O-bound app under 10%" true
    (List.for_all (fun (_, v) -> v < 10.) ws.by_scheme)

let test_overhead_full_set_matches_paper_bands () =
  (* the full Figure 3: means must land in the paper's neighbourhood *)
  let t = Harness.Overhead.run () in
  let mean s = List.assoc s t.spec_means in
  let open Rng.Scheme in
  Alcotest.(check bool)
    (Printf.sprintf "pseudo mean %.1f in [-1, 6]" (mean Pseudo))
    true
    (mean Pseudo >= -1. && mean Pseudo <= 6.);
  Alcotest.(check bool)
    (Printf.sprintf "AES-10 mean %.1f in [4, 15] (paper 10.3)" (mean aes10))
    true
    (mean aes10 >= 4. && mean aes10 <= 15.);
  Alcotest.(check bool)
    (Printf.sprintf "RDRAND mean %.1f in [10, 30] (paper ~22)" (mean Rdrand))
    true
    (mean Rdrand >= 10. && mean Rdrand <= 30.);
  (* at least one loop-dominated benchmark shows the paper's speedup *)
  Alcotest.(check bool) "some negative overhead exists under pseudo" true
    (List.exists
       (fun (r : Harness.Overhead.row) -> List.assoc Pseudo r.by_scheme < 0.)
       t.rows);
  Alcotest.(check bool)
    (Printf.sprintf "I/O worst %.1f <= 8 (paper 6)" t.io_worst)
    true (t.io_worst <= 8.)

(* ------------------------------------------------------------------ *)
(* Figure 4 *)

let test_memov_positive_and_pbox_driven () =
  let t =
    Harness.Memov.run ~workloads:(subset [ "h264ref"; "libquantum" ]) ()
  in
  List.iter
    (fun (r : Harness.Memov.row) ->
      Alcotest.(check bool) (r.workload ^ " overhead >= 0") true (r.overhead_pct >= 0.);
      Alcotest.(check bool) (r.workload ^ " hardened >= base") true
        (r.hardened_rss >= r.baseline_rss);
      Alcotest.(check bool) (r.workload ^ " has a P-BOX") true (r.pbox_bytes > 0))
    t.rows;
  (* the many-functions benchmark pays more *)
  let get n = List.find (fun (r : Harness.Memov.row) -> r.workload = n) t.rows in
  Alcotest.(check bool) "h264ref P-BOX > libquantum P-BOX" true
    ((get "h264ref").pbox_bytes > (get "libquantum").pbox_bytes)

(* ------------------------------------------------------------------ *)
(* Ablation *)

let test_ablation_tradeoffs () =
  let t = Harness.Ablation.run () in
  let get label =
    List.find (fun (r : Harness.Ablation.row) -> r.label = label) t.rows
  in
  let all = get "all optimizations" in
  let no_pow2 = get "no power-of-2 rows" in
  let no_share = get "neither sharing opt" in
  Alcotest.(check bool) "pow2 costs memory" true
    (all.total_pbox_bytes > no_pow2.total_pbox_bytes);
  Alcotest.(check bool) "pow2 saves cycles (AND vs modulo)" true
    (all.gobmk_cycles < no_pow2.gobmk_cycles);
  Alcotest.(check bool) "sharing saves memory" true
    (all.total_pbox_bytes < no_share.total_pbox_bytes)

(* ------------------------------------------------------------------ *)
(* Security experiments *)

let test_realvuln_shape () =
  let t = Harness.Security.realvuln ~trials_per_cell:4 () in
  List.iter
    (fun (c : Harness.Security.cell) ->
      match c.defense with
      | Defenses.Defense.No_defense ->
          Alcotest.(check (float 0.001))
            (c.attack_name ^ " undefended") 1.0 c.success_rate
      | _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s vs smokestack: %.2f <= 0.25" c.attack_name
               c.success_rate)
            true (c.success_rate <= 0.25))
    t.cells

let test_pentest_shape () =
  let t = Harness.Security.pentest ~trials_per_cell:4 () in
  List.iter
    (fun (c : Harness.Security.cell) ->
      match c.defense with
      | Defenses.Defense.No_defense ->
          Alcotest.(check (float 0.001)) (c.attack_name ^ " undefended") 1.0 c.success_rate
      | Defenses.Defense.Smokestack _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s vs smokestack %.2f" c.attack_name c.success_rate)
            true (c.success_rate <= 0.5)
      | _ -> ())
    t.cells

let test_brute_shape () =
  let rows = Harness.Security.brute ~max_attempts:120 () in
  let get d =
    List.find (fun (r : Harness.Security.brute_row) -> r.bdefense = d) rows
  in
  Alcotest.(check (option int)) "undefended falls immediately" (Some 1)
    (get Defenses.Defense.No_defense).attempts_to_success;
  let ss = get (Defenses.Defense.Smokestack Smokestack.Config.default) in
  Alcotest.(check bool) "smokestack needs many attempts or resists" true
    (match ss.attempts_to_success with None -> true | Some n -> n > 5)

(* ------------------------------------------------------------------ *)
(* Reporting plumbing *)

let test_markdown_renderers () =
  let t1 = Harness.Randrate.run ~draws:2_000 () in
  Alcotest.(check bool) "randrate md" true
    (String.length (Harness.Randrate.to_markdown t1) > 100);
  let e = Harness.Security.realvuln ~trials_per_cell:1 () in
  Alcotest.(check bool) "security md" true
    (String.length (Harness.Security.to_markdown e) > 100)

let test_str_replace () =
  Alcotest.(check string) "replace" "aXbXc"
    (Harness.Str_replace.replace ~needle:"-" ~by:"X" "a-b-c");
  Alcotest.(check string) "absent" "abc"
    (Harness.Str_replace.replace ~needle:"z" ~by:"X" "abc")

(* ------------------------------------------------------------------ *)
(* Headline invariants CI once grepped out of the bench output *)

let test_leaks_headline () =
  let t = Sched.Pool.with_pool ~jobs:2 (fun pool -> Harness.Leakcheck.run ~pool ()) in
  Alcotest.(check int) "static/dynamic disagreements" 0 t.disagreements;
  match t.guided with
  | None -> Alcotest.fail "no guided chain on stack-leaky"
  | Some g -> Alcotest.(check bool) "guided within factor-3 bound" true g.within_bound

let test_resilience_headline () =
  let t = Sched.Pool.with_pool ~jobs:2 (fun pool -> Harness.Resilience.run ~pool ()) in
  Alcotest.(check bool) "hand-written cost strictly higher" true t.hand_higher;
  Alcotest.(check bool) "synthesized cost strictly higher" true t.synth_higher;
  Alcotest.(check int) "batch-verdict mismatches" 0 t.mismatches

(* ------------------------------------------------------------------ *)
(* Experiment registry *)

let registry_ids = List.map (fun (e : Harness.Registry.entry) -> e.id) Harness.Registry.all

let unique xs = List.length (List.sort_uniq compare xs) = List.length xs

let test_registry_shape () =
  Alcotest.(check bool) "ids unique" true (unique registry_ids);
  Alcotest.(check int) "E1..E19" 19 (List.length Harness.Registry.all);
  List.iteri
    (fun i (e : Harness.Registry.entry) ->
      let prefix = Printf.sprintf "E%d — " (i + 1) in
      Alcotest.(check bool)
        (Printf.sprintf "%s heading %S starts with %S" e.id e.heading prefix)
        true
        (String.starts_with ~prefix e.heading))
    Harness.Registry.all

let run_ids pool ids =
  List.filter_map
    (fun (e : Harness.Registry.entry) ->
      if List.mem e.id ids then Some (e, e.run ~pool) else None)
    Harness.Registry.all

let section_of runs id =
  let e, r = List.find (fun ((e : Harness.Registry.entry), _) -> e.id = id) runs in
  Harness.Registry.section e r

(* a subset run renders each section exactly as a run of it alone *)
let test_registry_subset () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let subset = run_ids pool [ "table1"; "rngsec"; "rerand" ] in
  let alone = run_ids pool [ "rerand" ] in
  Alcotest.(check (list string)) "subset runs in report order"
    [ "table1"; "rngsec"; "rerand" ]
    (List.map (fun ((e : Harness.Registry.entry), _) -> e.id) subset);
  Alcotest.(check string) "rerand section" (section_of alone "rerand")
    (section_of subset "rerand")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The whole registry on the bytecode engine, as the report generator
   runs it: every JSON table name is distinct, every table is written
   as parsable JSON, and the report is the committed EXPERIMENTS.md
   byte for byte. *)
let test_registry_full_report () =
  Machine.Backend.set_default Machine.Backend.Bytecode;
  let runs =
    Fun.protect
      ~finally:(fun () -> Machine.Backend.set_default Machine.Backend.Reference)
      (fun () -> Sched.Pool.with_pool ~jobs:2 (fun pool -> run_ids pool registry_ids))
  in
  let names =
    List.concat_map
      (fun (_, (r : Harness.Registry.result)) -> List.map (fun (n, _, _) -> n) r.tables)
      runs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d JSON table names unique" (List.length names))
    true (unique names);
  let dir = Filename.temp_file "registry_json" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      List.iter (fun (_, r) -> Harness.Registry.write_json ~dir r) runs;
      List.iter
        (fun name ->
          let text = read_file (Filename.concat dir ("BENCH_" ^ name ^ ".json")) in
          Alcotest.(check bool) (name ^ " non-empty") true (String.length text > 0);
          match Sutil.Json.of_string text with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "BENCH_%s.json does not parse: %s" name e)
        names);
  Alcotest.(check string) "EXPERIMENTS.md regenerated byte for byte"
    (read_file
       (Filename.concat (Filename.dirname Sys.executable_name) "../EXPERIMENTS.md"))
    (Harness.Registry.report runs)

let () =
  (* as smokestackc does: link the bytecode engine, and make the static
     validator harden's post-condition and the selective-elision oracle *)
  Engine.Backend.install ();
  Analysis.Validate.install ();
  Alcotest.run "harness"
    [
      ("table1", [ Alcotest.test_case "matches paper" `Quick test_randrate_matches_table1 ]);
      ( "fig3",
        [
          Alcotest.test_case "scheme ordering" `Slow test_overhead_scheme_ordering;
          Alcotest.test_case "call density dominates" `Slow
            test_overhead_call_density_dominates;
          Alcotest.test_case "io modest" `Slow test_overhead_io_modest;
          Alcotest.test_case "full set in paper bands" `Slow
            test_overhead_full_set_matches_paper_bands;
        ] );
      ("fig4", [ Alcotest.test_case "pbox-driven" `Slow test_memov_positive_and_pbox_driven ]);
      ("ablation", [ Alcotest.test_case "tradeoffs" `Slow test_ablation_tradeoffs ]);
      ( "security",
        [
          Alcotest.test_case "realvuln shape" `Slow test_realvuln_shape;
          Alcotest.test_case "pentest shape" `Slow test_pentest_shape;
          Alcotest.test_case "brute shape" `Slow test_brute_shape;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "markdown" `Quick test_markdown_renderers;
          Alcotest.test_case "str_replace" `Quick test_str_replace;
        ] );
      ( "headlines",
        [
          Alcotest.test_case "leaks: no disagreement, guided in bound" `Slow
            test_leaks_headline;
          Alcotest.test_case "resilience: costs higher, no mismatch" `Slow
            test_resilience_headline;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids and headings" `Quick test_registry_shape;
          Alcotest.test_case "subset sections identical" `Slow test_registry_subset;
          Alcotest.test_case "full report and json names" `Slow
            test_registry_full_report;
        ] );
    ]
