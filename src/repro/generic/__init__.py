"""Generic systems: controller, generic object signature, composition (Section 5.1)."""
