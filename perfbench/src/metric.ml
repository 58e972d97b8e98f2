(* Metric names, units and the result line the benchmark prints last. *)

let name_ok c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all name_ok s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

type t = { name : string; value : float; unit_ : string }

let v name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.v: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Metric.v: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric.v: %s is not finite" name);
  { name; value; unit_ }

(* All seventeen significant digits: the value as measured. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.name then invalid_arg ("Metric: duplicate " ^ m.name);
      Hashtbl.add seen m.name ())
    metrics;
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
