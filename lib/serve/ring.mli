(** Consistent-hash ring mapping cache keys to fleet shards
    (DESIGN.md §14).

    Shards contribute 64 virtual points each on a hash circle; a
    key is owned by the first point at or clockwise-after the key's
    own hash.  Failover is a clockwise walk past dead shards — not a
    rehash — so removing or re-adding one shard only remaps the keys
    on that shard's own arcs.  The point set is a pure function of
    [nshards]: every router instance, at every process, at
    every jobs count, derives the identical ring. *)

type t

val create : nshards:int -> t
(** 64 points per shard.  Raises [Invalid_argument] unless
    [nshards] is positive. *)

val owner : t -> string -> int
(** The key's owner with every shard live. *)

val lookup : t -> live:(int -> bool) -> string -> int option
(** First live shard at or clockwise-after the key's hash; [None]
    when no shard satisfies [live].  With [live = fun _ -> true] this
    is {!owner}; with one shard marked dead, only keys owned by that
    shard move (each to the next live point on its arc). *)

val points : t -> (int * int) array
(** The sorted [(hash, shard)] point list (a copy) — exposed for the
    qcheck ring properties and diagnostics. *)
