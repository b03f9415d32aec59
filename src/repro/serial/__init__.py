"""Serial systems: scheduler, serial objects, simple database (Sections 2-3)."""
