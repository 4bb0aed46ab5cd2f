"""P2P network substrate: peers, messages, cost model, simulated and real transports."""
