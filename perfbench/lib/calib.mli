(** Host-speed calibration for the end-to-end timings.

    The benchmark shares a few cores with other tenants, and for seconds to
    minutes at a time they slow its memory-bound code by up to 40%.  No
    choice of statistic over the passes of one run hides that, because a
    whole run can fall in a slow stretch.  So a run also times a fixed
    reference kernel every 50 ms, in a child process pinned to the same
    core as the workload (the parent's CPU affinity is inherited).  A pass's
    CPU time is then rescaled to what it would have been had the kernel
    taken {!reference_s}: a change to the measured code moves the result, a
    slow stretch of the host moves pass and kernel alike and cancels.

    The kernel is fixed benchmark code that the repository's libraries
    never touch: string keys into a [Hashtbl] with list values, the kind of
    small-block allocation and hashing the checker and the storage stack do.
    It runs in its own process, so its allocation never meets the measured
    heap, and both sides are timed in CPU time, so neither is charged for
    the other's slices of the shared core. *)

val kernel : unit -> int
(** One run of the reference kernel: 3,000 string-keyed [Hashtbl.replace]s. *)

val reference_s : float
(** The kernel's nominal CPU time, the unit the rescaled timings are in:
    0.6 ms, about its time on a lightly loaded 2-vCPU Xeon guest, where
    loaded stretches measured up to 0.83 ms.  A rescaled timing reads as
    the CPU time the work takes on that guest when it is lightly loaded. *)

val cpu_s : unit -> float
(** CPU time (user + system) of the calling process so far. *)

val serve : unit -> 'a
(** The child's main loop: sample the kernel every 50 ms until
    standard input closes, then print the samples, one [time cpu_s] pair a
    line, on standard output and exit 0. *)

type t

val start : unit -> t
(** Spawn [Sys.executable_name --calibrate] as the sampling child. *)

val stop : t -> (float * float) array
(** Close the child's input, read its samples (wall-clock time, kernel CPU
    seconds) and wait until it has exited.  Call it once. *)

val kernel_s : (float * float) array -> t0:float -> t1:float -> float
(** Median kernel time over the samples taken in [\[t0, t1\]], the window
    first widened around its middle to at least one second so that a short
    pass still has samples.  Raises [Failure] if there are none. *)

val rescale : (float * float) array -> t0:float -> t1:float -> cpu:float -> float
(** [cpu * reference_s / kernel_s samples ~t0 ~t1]. *)
