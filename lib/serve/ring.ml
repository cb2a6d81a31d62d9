(* Consistent-hash ring: cache keys -> shards (DESIGN.md §14).

   Each shard contributes [vnodes] points on a circle of 56-bit hash
   values; a key belongs to the first point at or clockwise-after its
   own hash.  Failover walks clockwise past dead shards instead of
   rehashing, so losing (or re-adding) a shard only moves the keys on
   that shard's own arcs — every other key keeps its owner, which is
   what lets a rebuilt shard rejoin with its replica-restored cache
   still addressing the right keys. *)

type t = (int * int) array (* (hash, shard) points, sorted by hash *)

let vnodes = 64

(* 56 bits of an MD5 digest: plenty of spread, and always a
   non-negative OCaml int on 64-bit platforms. *)
let hash_str s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v

let create ~nshards =
  if nshards <= 0 then invalid_arg "Ring.create: nshards must be positive";
  let points =
    Array.init (nshards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash_str (Printf.sprintf "qcx-ring-v1 shard=%d vnode=%d" shard v), shard))
  in
  (* Ties (astronomically unlikely) break by shard id, keeping the
     point order a pure function of [nshards]. *)
  Array.sort compare points;
  points

let points t = Array.copy t

(* Index of the first point with hash >= h, wrapping past the top. *)
let start_index pts h =
  let n = Array.length pts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst pts.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let lookup pts ~live key =
  let n = Array.length pts in
  let s0 = start_index pts (hash_str key) in
  let rec walk i =
    if i >= n then None
    else
      let shard = snd pts.((s0 + i) mod n) in
      if live shard then Some shard else walk (i + 1)
  in
  walk 0

let owner t key =
  match lookup t ~live:(fun _ -> true) key with
  | Some s -> s
  | None -> assert false (* nshards > 0 and every shard is live *)
