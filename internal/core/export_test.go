package core

// Reference returns cfg with phase 2 replaced by the reference campaign
// (reference_test.go), the slow path every differential suite compares
// the production campaign against.
func Reference(cfg Config) Config {
	cfg.reference = referenceCampaign
	return cfg
}
