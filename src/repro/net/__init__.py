"""Network substrate: packets, queues, links, hosts, switches, ECMP routing."""
