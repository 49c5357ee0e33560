(* The benchmark's own helpers: percentile sample floor, span self time
   and attribution, host fingerprint matching, JSON round trip. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-9))
let check_opt = Alcotest.(check (option (float 1e-9)))
let ascending n = Array.init n (fun i -> Float.of_int (i + 1))

let percentile_nearest_rank () =
  let a = ascending 100 in
  check_opt "p50 of 1..100" (Some 50.0) (Stats.percentile a 0.5);
  check_opt "p90 of 1..100 has exactly ten beyond" (Some 90.0) (Stats.percentile a 0.9);
  check_opt "p90 of 150 samples" (Some 135.0) (Stats.percentile (ascending 150) 0.9);
  check_opt "p99 of 2100 samples" (Some 2079.0) (Stats.percentile (ascending 2100) 0.99)

let percentile_floor () =
  check_opt "p90 of 99 samples: nine beyond" None (Stats.percentile (ascending 99) 0.9);
  check_opt "p99 of 999 samples" None (Stats.percentile (ascending 999) 0.99);
  check_opt "p99 of 1000 samples" (Some 990.0) (Stats.percentile (ascending 1000) 0.99);
  (* the artifact the floor rules out: p99.9 silently equal to p99 *)
  check_opt "p99.9 of 1000 samples" None (Stats.percentile (ascending 1000) 0.999);
  check_opt "custom floor" (Some 99.0) (Stats.percentile ~floor:1 (ascending 100) 0.99);
  check_opt "empty" None (Stats.percentile [||] 0.5)

let median_even_odd () =
  check_float "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let mk id name parent start stop domain = { Span.id; name; parent; start; stop; domain }

(* root [0,10] with children [1,4] and [3,6] (overlapping: other domain)
   and [8,9]; the first child has a grandchild [2,3] *)
let tree =
  [|
    mk 0 "pool.map" (-1) 0.0 10.0 0;
    mk 1 "core.a" 0 1.0 4.0 0;
    mk 2 "core.b" 0 3.0 6.0 1;
    mk 3 "core.c" 0 8.0 9.0 0;
    mk 1 "core.omim" 1 2.0 3.0 0;
  |]

let span_self_time () =
  let self = Span.self_times tree in
  check_float "root: 10 minus covered [1,6] and [8,9]" 4.0 self.(0);
  check_float "child minus grandchild" 2.0 self.(1);
  check_float "leaf" 3.0 self.(2);
  check_float "leaf" 1.0 self.(3);
  check_float "grandchild" 1.0 self.(4);
  Alcotest.(check (list (pair string (float 1e-9))))
    "by layer" [ ("pool", 4.0); ("core", 7.0) ] (Span.by_layer tree self)

let span_attribution () =
  let share = Span.attributed tree in
  check_float "attribution sums to the root's wall time" 10.0 (Array.fold_left ( +. ) 0.0 share);
  (* [3,4]: core.a and core.b run at once on two domains, half each *)
  check_float "core.a" 1.5 share.(1);
  check_float "core.b" 2.5 share.(2)

let span_recorder () =
  let r = Span.create () in
  let v = Span.span r ~id:7 "fleet.process" (fun () -> Span.span r ~id:7 "core.x" (fun () -> 42)) in
  Alcotest.(check int) "value" 42 v;
  let s = Span.spans r in
  Alcotest.(check (list int)) "parents" [ -1; 0 ] (Array.to_list (Array.map (fun s -> s.Span.parent) s));
  let outer = Span.create () in
  let root = Span.enter outer ~id:0 "pool.map" in
  Span.leave outer root;
  Span.append outer ~parent:root s;
  Alcotest.(check (list int)) "grafted parents" [ -1; 0; 1 ]
    (Array.to_list (Array.map (fun s -> s.Span.parent) (Span.spans outer)));
  Alcotest.(check (list int)) "subtree" [ 0; 1; 2 ] (List.sort compare (Span.subtree (Span.spans outer) 0))

let host =
  {
    Fingerprint.nproc = 2;
    domains = 2;
    cpu_model = "Example CPU @ 2.0GHz";
    ocaml = "5.1.1";
    ocamlrunparam = "";
    hostname = "box";
    commit = "abc";
  }

let fingerprint_matching () =
  Alcotest.(check bool) "same host, other commit" true
    (Fingerprint.matches host { host with commit = "def" });
  Alcotest.(check bool) "other core count" false (Fingerprint.matches host { host with nproc = 4 });
  Alcotest.(check bool) "other runtime setting" false
    (Fingerprint.matches host { host with ocamlrunparam = "s=4M" });
  Alcotest.(check (list (triple string string string)))
    "mismatch names the field" [ ("cpu_model", "Example CPU @ 2.0GHz", "Other") ]
    (Fingerprint.mismatches host { host with cpu_model = "Other" })

let fingerprint_json_roundtrip () =
  let j = Json.parse (Json.to_string (Fingerprint.to_json host)) in
  Alcotest.(check bool) "roundtrip" true (Fingerprint.of_json j = host)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("x", Json.Num 0.1);
        ("n", Json.Num 3.0);
        ("s", Json.Str "a \"q\"\n");
        ("l", Json.Arr [ Json.Null; Json.Bool true ]);
      ]
  in
  Alcotest.(check bool) "every digit survives" true (Json.parse (Json.to_string v) = v);
  Alcotest.(check string) "non-finite is null" "null" (Json.to_string (Json.Num Float.nan))

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile nearest rank" `Quick percentile_nearest_rank;
          Alcotest.test_case "percentile sample floor" `Quick percentile_floor;
          Alcotest.test_case "median" `Quick median_even_odd;
          Alcotest.test_case "span self time" `Quick span_self_time;
          Alcotest.test_case "span attribution" `Quick span_attribution;
          Alcotest.test_case "span recorder" `Quick span_recorder;
          Alcotest.test_case "fingerprint matching" `Quick fingerprint_matching;
          Alcotest.test_case "fingerprint json" `Quick fingerprint_json_roundtrip;
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
        ] );
    ]
