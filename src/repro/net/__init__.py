"""The network stack: a Linux-2.4.20-shaped TCP/IP fast path.

Layout mirrors the kernel source the paper profiles, with every
function tagged with one of the paper's functional bins:

* :mod:`repro.net.sock` -- struct sock: buffers, locks, wait queues
  (Interface / Buffer mgmt boundaries live here);
* :mod:`repro.net.skbuff` -- sk_buffs and the slab allocator with
  per-CPU freelists (Buffer mgmt);
* :mod:`repro.net.tcp_output` / :mod:`repro.net.tcp_input` -- the TCP
  Engine: sendmsg segmentation and Nagle coalescing, transmit, ACK
  processing, receive-side state machine;
* :mod:`repro.net.copies` -- the copy routines, with 2.4's asymmetry:
  a rolled-out, alignment-aware transmit copy vs. a ``rep movl``
  receive copy (the source of the paper's huge RX-copy CPI);
* :mod:`repro.net.dev` / :mod:`repro.net.nic` -- dev-layer queues,
  softnet backlogs, and an e1000-like NIC with descriptor rings, DMA,
  interrupt coalescing and a serialized gigabit wire;
* :mod:`repro.net.peer` -- the ideal remote endpoint (the paper's
  client machines), which keeps the SUT the bottleneck;
* :mod:`repro.net.stack` -- assembly: connections, IRQ lines, softirq
  actions, and the syscall entry points the workload calls.
* :mod:`repro.net.params` -- ``NetParams``, the stack's constants.

Import names from their defining module; the package re-exports
nothing.
"""
