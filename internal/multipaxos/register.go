package multipaxos

import "consensusinside/internal/protocol"

func init() {
	protocol.Register(protocol.MultiPaxos, protocol.Info{
		Name:        "Multi-Paxos",
		MinReplicas: 3,
		New:         func(cfg protocol.Config) protocol.Engine { return New(cfg) },
	})
}
