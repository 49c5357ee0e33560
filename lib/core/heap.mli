(** Plain binary min-heaps.

    The event queue of the cluster simulator only ever adds elements and
    consumes the minimum, so it needs no index from elements to heap
    slots: an element that must leave early stays in the heap and its
    owner skips it when it surfaces (lazy deletion). [add] and [pop] are O(log n)
    and allocate nothing but the array's doublings and the options that
    [peek] and [pop] return.

    The comparator must be a total order on the elements that are in the
    heap together; equal elements are served in an unspecified but
    deterministic order, so callers that need a full tie-break (by id or
    sequence number) must encode it in [cmp]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** An empty min-heap under [cmp]. *)

val add : 'a t -> 'a -> unit
(** O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element under [cmp], O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element, O(log n). *)

val clear : 'a t -> unit
(** Empty the heap and release its array, so that no removed element
    stays reachable from it. *)

val to_list : 'a t -> 'a list
(** The elements in unspecified order, O(n). *)
