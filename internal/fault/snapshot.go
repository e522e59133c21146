package fault

// SaveState copies the injector's state.
func (inj *Injector) SaveState() InjectorState { return inj.InjectorState }

// RestoreState overwrites the injector's state from a snapshot taken on
// an injector built from the same Config, seed and vault count.
func (inj *Injector) RestoreState(st InjectorState) error {
	inj.InjectorState = st
	return nil
}
