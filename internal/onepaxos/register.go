package onepaxos

import "consensusinside/internal/protocol"

func init() {
	protocol.Register(protocol.OnePaxos, protocol.Info{
		Name:        "1Paxos",
		MinReplicas: 3,
		New:         func(cfg protocol.Config) protocol.Engine { return New(cfg) },
	})
}
