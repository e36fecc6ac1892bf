package basicpaxos

import "consensusinside/internal/protocol"

func init() {
	protocol.Register(protocol.BasicPaxos, protocol.Info{
		Name:        "BasicPaxos",
		MinReplicas: 3,
		New:         func(cfg protocol.Config) protocol.Engine { return NewReplica(cfg) },
	})
}
