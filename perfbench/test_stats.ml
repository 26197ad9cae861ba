(* Tests for the benchmark's pure parts: tail selection, metric-name
   validation, the unattributed arithmetic and the output-check parsers. *)

let flt = Alcotest.float 1e-9

let tail () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* 100 samples 1..100: the 90th value has exactly ten beyond it *)
  let v, p, n = Stats.tail (List.rev (xs 100)) in
  Alcotest.check flt "value" 90. v;
  Alcotest.check flt "percentile" 90. p;
  Alcotest.(check int) "n" 100 n;
  let v, p, _ = Stats.tail (xs 11) in
  Alcotest.check flt "eleven samples: the smallest" 1. v;
  Alcotest.check flt "eleven samples: percentile" (100. /. 11.) p;
  let v, p, _ = Stats.tail (xs 7) in
  Alcotest.check flt "ten or fewer: the maximum" 7. v;
  Alcotest.check flt "ten or fewer: percentile 100" 100. p;
  let v, _, n = Stats.tail [] in
  Alcotest.check flt "empty" 0. v;
  Alcotest.(check int) "empty n" 0 n;
  Alcotest.check flt "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check flt "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (list (pair string flt)))
    "per-key medians, first-seen order"
    [ ("b", 2.); ("a", 5.) ]
    (Stats.group_medians [ ("b", 3.); ("a", 5.); ("b", 1.); ("b", 2.) ]);
  (* op tail: 20 samples of a slow op "s" (one stall at 1000) and 30 of
     a fast op "f"; ten samples beyond the tail land inside "s", whose
     median is reported, not its stall *)
  let slow = List.init 20 (fun i -> ("s", if i = 0 then 1000. else 50. +. float_of_int (i mod 3))) in
  let fast = List.init 30 (fun i -> ("f", 1. +. float_of_int (i mod 2))) in
  let v, p, n = Stats.op_tail (slow @ fast) in
  Alcotest.check flt "op tail: the slow op's median" 51. v;
  Alcotest.check flt "op tail: percentile" 80. p;
  Alcotest.(check int) "op tail: n" 50 n;
  (* with only five slow samples the tail moves down to the fast op *)
  let v, _, _ = Stats.op_tail (List.filteri (fun i _ -> i < 5) slow @ fast) in
  Alcotest.check flt "op tail: falls to the fast op" 1.5 v

let names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stats.valid_name s))
    [ "setup_s"; "csc.resolve_ms"; "serve.rtt_mem_ms"; "0x"; "a-b.c_d" ];
  List.iter
    (fun s -> Alcotest.(check bool) s false (Stats.valid_name s))
    [ ""; ".hidden"; "_x"; "-x"; "a b"; "a/b"; "a%"; "é"; String.make 65 'a' ];
  Alcotest.(check bool) "64 characters" true (Stats.valid_name (String.make 64 'a'))

let unattributed () =
  let rest, frac = Stats.unattributed ~total:100. [ 60.; 30.; 5. ] in
  Alcotest.check flt "rest" 5. rest;
  Alcotest.check flt "frac" 0.95 frac;
  let rest, frac = Stats.unattributed ~total:10. [ 6.; 4.5 ] in
  Alcotest.check flt "clamped rest" 0. rest;
  Alcotest.check flt "clamped frac" 1. frac;
  let rest, frac = Stats.unattributed ~total:0. [] in
  Alcotest.check flt "empty rest" 0. rest;
  Alcotest.check flt "empty frac" 1. frac;
  Alcotest.check flt "ratio" 0.25 (Stats.ratio 1 4);
  Alcotest.check flt "ratio over 0" 0. (Stats.ratio 3 0)

let synth_ok =
  "circuit            area=264   csc=2   cycle=12   inp=3   states=16    verified=yes\n\
   lo = ro' csc0'\nmapped area: 200\n"

let synth_unresolved =
  "circuit            area=-     csc=-   cycle=-    inp=-   states=5     verified=-\n"

let parsers () =
  (match Stats.check_synth synth_ok with
  | Ok r ->
      Alcotest.(check (option int)) "area" (Some 264) r.Stats.area;
      Alcotest.(check (option int)) "csc" (Some 2) r.Stats.csc;
      Alcotest.(check (option int)) "cycle" (Some 12) r.Stats.cycle
  | Error e -> Alcotest.fail e);
  (match Stats.check_synth synth_unresolved with
  | Ok r -> Alcotest.(check (option int)) "unresolved area" None r.Stats.area
  | Error e -> Alcotest.fail e);
  let bad =
    "circuit            area=88    csc=0   cycle=12   inp=4   states=12    verified=NO\n"
  in
  Alcotest.(check bool) "verified=NO fails" true (Result.is_error (Stats.check_synth bad));
  Alcotest.(check bool) "garbage fails" true (Result.is_error (Stats.check_synth "oops\n"));
  let single =
    "explored 22 configurations over 4 levels; best cost 12.8\n\
     reductions applied: a+ after b+\n.inputs a\n.outputs b\n.graph\na+ b+\n.end\n"
  in
  Alcotest.(check (option flt)) "single best cost" (Some 12.8) (Stats.best_cost single);
  Alcotest.(check (option string)) "reduced stg"
    (Some ".inputs a\n.outputs b\n.graph\na+ b+\n.end\n") (Stats.reduced_stg single);
  Alcotest.(check (option string)) "no stg" None
    (Stats.reduced_stg "explored 1 configurations over 0 levels; best cost 1.0\nreductions applied: \n");
  let portfolio =
    "arm 0 (w=0.30, tree): cost 9.0, 2 csc pairs, 1 reductions\n\
     arm 0 (w=0.30, tree): explored 5 over 2 levels; best cost 9.0 (yardstick 7.0)\n\
     arm 1 (w=0.80, tree): explored 6 over 2 levels; best cost 11.5 (yardstick 6.5)\n\
     cross-arm table: 3 hits, 9 misses; speculation: 4 published, 0 consumed\n\
     winner: arm 1 (w=0.80, tree)\nreductions applied: \n"
  in
  Alcotest.(check (option flt)) "portfolio winner's best cost" (Some 11.5)
    (Stats.best_cost portfolio)

let rename () =
  let spec =
    ".inputs a b\n.outputs c\n.graph\na+ c+ p1\nc+ b+/1\np1 a-\nb+/1 a-\na- c-\nc- a+\n\
     .marking { <c-,a+> }\n.end\n"
  in
  Alcotest.(check string) "renamed"
    ".inputs a_x b_x\n.outputs c_x\n.graph\na_x+ c_x+ p1\nc_x+ b_x+/1\np1 a_x-\nb_x+/1 a_x-\n\
     a_x- c_x-\nc_x- a_x+\n.marking { <c_x-,a_x+> }\n.end\n"
    (Stats.rename_signals ~suffix:"_x" spec)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile selection" `Quick tail;
          Alcotest.test_case "metric name validation" `Quick names;
          Alcotest.test_case "unattributed arithmetic" `Quick unattributed;
          Alcotest.test_case "output-check parsers" `Quick parsers;
          Alcotest.test_case "signal renaming for fresh specs" `Quick rename;
        ] );
    ]
