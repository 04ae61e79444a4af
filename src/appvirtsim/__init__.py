"""appvirtsim: a deterministic simulator of Android-style app virtualization.

Container/plugin execution with UID sharing and two-layer API hooking, an
add-on customization pipeline, eighteen virtual-environment detection
probes plus a runtime hotness-counter detector, and a CLI that reproduces
the whole detect-versus-bypass matrix.
"""

__version__ = "0.1.0"
