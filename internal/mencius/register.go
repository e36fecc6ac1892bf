package mencius

import "consensusinside/internal/protocol"

func init() {
	protocol.Register(protocol.Mencius, protocol.Info{
		Name:        "Mencius",
		MinReplicas: 3,
		New:         func(cfg protocol.Config) protocol.Engine { return New(cfg) },
	})
}
