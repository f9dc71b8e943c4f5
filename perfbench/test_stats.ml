(* Tests of the benchmark's statistics helpers. *)

open Perfbench_stats

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  (* p99 needs 10 samples beyond its rank: 1000 is the first count *)
  check "p99 refused at 999" (Result.is_error (Stats.percentile (xs 999) 0.99));
  check "p99 at 1000 is the 990th value"
    (Stats.percentile (xs 1000) 0.99 = Ok 990.0);
  check "p50 refused at 19" (Result.is_error (Stats.percentile (xs 19) 0.5));
  check "p50 of 20" (Stats.percentile (xs 20) 0.5 = Ok 10.0);
  check "empty refused" (Result.is_error (Stats.percentile [||] 0.5));
  check "median odd" (close (Stats.median [| 3.0; 1.0; 2.0 |]) 2.0);
  check "median even" (close (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]) 2.5);
  (* open-loop latency counts from the due time *)
  let t = { Stats.due = 1.0; sent = 1.25; done_ = 2.0 } in
  check "latency from due" (close (Stats.latency t) 1.0);
  check "lateness" (close (Stats.lateness t) 0.25);
  check "early send is not late"
    (close (Stats.lateness { t with Stats.sent = 0.5 }) 0.0);
  (* host-speed factors: each chunk uses the samples around it *)
  let f = Stats.chunk_factors ~reference:10.0 [| 10.0; 20.0; 20.0; 20.0; 100.0 |] in
  check "one factor per chunk" (Array.length f = 4);
  check "first chunk: median of samples 0..2" (close f.(0) 0.5);
  check "one outlier sample is ignored" (close f.(2) 0.5);
  check "last chunk: median of samples 2..4" (close f.(3) 0.5);
  check "steady host keeps times"
    (Array.for_all (fun x -> close x 1.0) (Stats.chunk_factors ~reference:5.0 [| 5.0; 5.0 |]));
  check "one sample refused"
    (match Stats.chunk_factors ~reference:1.0 [| 1.0 |] with
     | exception Invalid_argument _ -> true
     | _ -> false);
  (* ratios keep their base *)
  let r = Stats.ratio 0.0 1200.0 in
  check "share" (close (Stats.share r) 0.0);
  check "ratio printed with base" (Stats.ratio_to_string r = "0.0000 (0/1200)");
  check "large base printed whole"
    (Stats.ratio_to_string (Stats.ratio 0.0 1048800.0) = "0.0000 (0/1048800)");
  check "zero base" (close (Stats.share (Stats.ratio 0.0 0.0)) 0.0);
  if !failures > 0 then exit 1;
  print_endline "stats: all tests passed"
