(* In-memory span recorder for the traced run.

   A span is (name, start, stop, parent, run id).  Spans are kept in
   growable parallel arrays — a traced pass records several hundred
   thousand of them, one per intrinsic call — and written out once,
   when the benchmark ends. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable run : int array;
  mutable start : int array;  (** ns, {!Clock.now_ns} *)
  mutable stop : int array;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable cur_run : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    run = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    names = Hashtbl.create 32;
    labels = [||];
    stack = [];
    cur_run = -1;
  }

let intern t label =
  match Hashtbl.find_opt t.names label with
  | Some i -> i
  | None ->
      let i = Array.length t.labels in
      Hashtbl.add t.names label i;
      t.labels <- Array.append t.labels [| label |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name;
  t.parent <- g t.parent;
  t.run <- g t.run;
  t.start <- g t.start;
  t.stop <- g t.stop

let set_run t run = t.cur_run <- run

let enter t name_id =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name_id;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.run.(i) <- t.cur_run;
  t.stack <- i :: t.stack;
  t.start.(i) <- Clock.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Clock.now_ns ();
  match t.stack with
  | j :: rest when j = i -> t.stack <- rest
  | _ -> invalid_arg "Span.leave: spans must nest"

let with_id t name_id f =
  let i = enter t name_id in
  match f () with
  | r ->
      leave t i;
      r
  | exception e ->
      leave t i;
      raise e

let with_ t label f = with_id t (intern t label) f
let label t i = t.labels.(t.name.(i))
let run_of t i = t.run.(i)
let parent_of t i = t.parent.(i)
let duration_ns t i = t.stop.(i) - t.start.(i)

(* The part of [lo, hi) that the given intervals cover, each interval
   clipped to it and overlaps counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s lo and e = min e hi in
        if e > s then Some (s, e) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (s, e) -> acc + (e - s))
    | (s, e) :: rest -> (
        match cur with
        | None -> go acc (Some (s, e)) rest
        | Some (cs, ce) when s <= ce -> go acc (Some (cs, max ce e)) rest
        | Some (cs, ce) -> go (acc + (ce - cs)) (Some (s, e)) rest)
  in
  go 0 None clipped

(* Self time: the span's duration minus what its children cover. *)
let self_time ~lo ~hi children = hi - lo - covered ~lo ~hi children

let self_ns t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p)
  done;
  Array.init t.n (fun i -> self_time ~lo:t.start.(i) ~hi:t.stop.(i) kids.(i))

(* Indices of the spans with this label that satisfy [run]. *)
let select ?(run = fun _ -> true) t label =
  match Hashtbl.find_opt t.names label with
  | None -> []
  | Some id ->
      let acc = ref [] in
      for i = t.n - 1 downto 0 do
        if t.name.(i) = id && run t.run.(i) then acc := i :: !acc
      done;
      !acc

(* [count_by_run t run label]: spans with this label in this run. *)
let count_by_run t =
  let h = Hashtbl.create 1024 in
  for i = 0 to t.n - 1 do
    let k = (t.run.(i), t.name.(i)) in
    Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))
  done;
  fun run label ->
    match Hashtbl.find_opt t.names label with
    | None -> 0
    | Some id -> Option.value ~default:0 (Hashtbl.find_opt h (run, id))

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\trun\tname\tstart_ns\tstop_ns\n";
  let base = if t.n = 0 then 0 else t.start.(0) in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" i t.parent.(i) t.run.(i) (label t i)
      (t.start.(i) - base) (t.stop.(i) - base)
  done;
  close_out oc
