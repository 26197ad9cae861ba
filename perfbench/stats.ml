(* The benchmark's pure parts: order statistics, metric-name validation,
   the attributed/unattributed split, and the parsers behind the output
   checks.  Kept free of I/O so test_stats.ml can pin them. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median with the midpoint rule for even counts; 0 for no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-key medians of [(key, sample)] pairs, keys in first-seen order:
   an operation's own time over its repetitions in a run. *)
let group_medians samples =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (k, x) ->
      match Hashtbl.find_opt tbl k with
      | Some xs -> Hashtbl.replace tbl k (x :: xs)
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ x ])
    samples;
  List.rev_map (fun k -> (k, median (Hashtbl.find tbl k))) !order

(* The tail the benchmark reports: the highest percentile that still has
   at least ten samples beyond it, i.e. the (n-10)-th smallest of n
   samples, at percentile 100 (n-10)/n.  With ten samples or fewer no
   percentile qualifies and the maximum is reported at percentile 100.
   Returns [(value, percentile, n)]. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else if n <= 10 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

(* [tail] over [(op, sample)] pairs with each sample replaced by its op's
   median over the run.  Which op the tail lands on still follows the
   mix (an op's weight is its sample count), but its value is a median
   of that op's own samples: the few slowest samples of a run are the
   host's stalls, and read straight they spread a run's tail by a
   quarter or more on a shared host. *)
let op_tail samples =
  let medians = Hashtbl.create 64 in
  List.iter (fun (k, m) -> Hashtbl.replace medians k m) (group_medians samples);
  tail (List.map (fun (k, _) -> Hashtbl.find medians k) samples)

(* Metric names are [A-Za-z0-9_.-]+, start with a letter or digit and
   are at most 64 characters. *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* Operation time minus the named layers' self times.  The layers are
   timed back to back inside the operation, so their sum can exceed the
   operation's time only by clock granularity; the remainder is clamped
   at 0 and the attributed fraction at 1.  Returns
   [(unattributed, attributed_frac)]. *)
let unattributed ~total layers =
  let named = List.fold_left ( +. ) 0. layers in
  let rest = Float.max 0. (total -. named) in
  let frac = if total <= 0. then 1. else Float.min 1. (named /. total) in
  (rest, frac)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ---- output-check parsers ---- *)

(* Fields of the report line [astg synth] prints first:
   "circuit   area=264   csc=2   cycle=12  inp=3  states=16  verified=yes".
   [None] for a field rendered "-" (no implementation). *)
type synth_report = {
  area : int option;
  csc : int option;
  cycle : int option;
  verified : string;
}

(* The space-delimited token after the first occurrence of [pat] in
   [line] that starts a word. *)
let token_after pat line =
  let pl = String.length pat and n = String.length line in
  let rec find i =
    if i + pl > n then None
    else if String.sub line i pl = pat && (i = 0 || line.[i - 1] = ' ') then begin
      let j = ref (i + pl) in
      while !j < n && line.[!j] <> ' ' do incr j done;
      Some (String.sub line (i + pl) (!j - i - pl))
    end
    else find (i + 1)
  in
  find 0

let field line key = token_after (key ^ "=") line

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let parse_synth out =
  let line = first_line out in
  let num k =
    match field line k with
    | Some "-" -> Ok None
    | Some v -> (
        match int_of_string_opt v with
        | Some x -> Ok (Some x)
        | None -> Error (Printf.sprintf "bad %s=%s" k v))
    | None -> Error ("no " ^ k ^ "= field in report line")
  in
  match (num "area", num "csc", num "cycle", field line "verified") with
  | Ok area, Ok csc, Ok cycle, Some verified -> Ok { area; csc; cycle; verified }
  | (Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _) -> Error e
  | _, _, _, None -> Error "no verified= field in report line"

(* The check on one [synth] output: an implemented circuit (area shown)
   must report verified=yes; one whose CSC resolution gave up shows "-"
   everywhere and is not a failure. *)
let check_synth out =
  match parse_synth out with
  | Error e -> Error e
  | Ok ({ area = Some _; verified = "yes"; _ } as r) -> Ok r
  | Ok { area = Some _; verified; _ } -> Error ("verified=" ^ verified)
  | Ok ({ area = None; verified = "-"; _ } as r) -> Ok r
  | Ok { area = None; verified; _ } ->
      Error ("unimplemented circuit with verified=" ^ verified)

let lines s = String.split_on_char '\n' s

(* "best cost" of the winning configuration: the single-search summary
   line "explored N configurations over L levels; best cost C", or, for
   a portfolio, the winner's "arm I (...): explored ...; best cost C
   (yardstick Y)" line named by "winner: arm I". *)
let best_cost out =
  let after_cost l = Option.bind (token_after "best cost " l) float_of_string_opt in
  let ls = lines out in
  let starts p l = String.starts_with ~prefix:p l in
  match List.find_opt (starts "winner: arm ") ls with
  | Some w -> (
      match String.split_on_char ' ' w with
      | _ :: _ :: i :: _ -> (
          let prefix = "arm " ^ i ^ " (" in
          match
            List.find_opt
              (fun l -> starts prefix l && after_cost l <> None)
              ls
          with
          | Some l -> after_cost l
          | None -> None)
      | _ -> None)
  | None -> (
      match List.find_opt (starts "explored ") ls with
      | Some l -> after_cost l
      | None -> None)

(* The realized STG that [reduce --stg] appends after its
   "reductions applied:" line. *)
let reduced_stg out =
  let ls = lines out in
  let rec skip = function
    | [] -> None
    | l :: rest when String.starts_with ~prefix:"reductions applied:" l ->
        Some (String.concat "\n" rest)
    | _ :: rest -> skip rest
  in
  match skip ls with Some "" | None -> None | Some s -> Some s

(* [rename_signals ~suffix text] — the .g spec [text] with every signal
   [s] renamed [s ^ suffix]: a design nobody has submitted before (a new
   content-addressed cache key) with the same structure and cost.
   Signals are the names on the .inputs/.outputs/.internal lines; in the
   graph and marking they are the identifiers followed by an edge sign,
   so place names are left alone. *)
let rename_signals ~suffix text =
  let is_id = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let names = Hashtbl.create 16 in
  let header l =
    match String.split_on_char ' ' (String.trim l) with
    | (".inputs" | ".outputs" | ".internal") :: ns ->
        List.iter (fun n -> if n <> "" then Hashtbl.replace names n ()) ns;
        true
    | _ -> false
  in
  let rename_line ~all l =
    let b = Buffer.create (String.length l + 16) in
    let n = String.length l in
    let i = ref 0 in
    while !i < n do
      if is_id l.[!i] then begin
        let j = ref !i in
        while !j < n && is_id l.[!j] do incr j done;
        let tok = String.sub l !i (!j - !i) in
        Buffer.add_string b tok;
        let signed = !j < n && (l.[!j] = '+' || l.[!j] = '-' || l.[!j] = '~') in
        if Hashtbl.mem names tok && (all || signed) then Buffer.add_string b suffix;
        i := !j
      end
      else begin
        Buffer.add_char b l.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let ls = lines text in
  let headers = List.map header ls in
  String.concat "\n"
    (List.map2
       (fun l h ->
         if String.starts_with ~prefix:"." l && not (h || String.starts_with ~prefix:".marking" l)
         then l
         else rename_line ~all:h l)
       ls headers)
