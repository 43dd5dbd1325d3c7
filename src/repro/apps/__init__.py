"""Workloads that drive the simulated stack.

====================  ==============================================
:mod:`.ttcp`          ``TtcpWorkload``: the paper's bulk-transfer
                      micro-benchmark
:mod:`.iscsi`         ``IscsiTargetWorkload``: the iSCSI-target
                      future-work workload
:mod:`.webserve`      ``WebServerWorkload``: connection-churn web
                      serving (the paper's workload-partitioning
                      argument)
====================  ==============================================

Import names from their defining module; the package re-exports
nothing.
"""
