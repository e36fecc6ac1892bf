package twopc

import "consensusinside/internal/protocol"

func init() {
	protocol.Register(protocol.TwoPC, protocol.Info{
		Name:        "2PC",
		MinReplicas: 2,
		New:         func(cfg protocol.Config) protocol.Engine { return New(cfg) },
	})
}
