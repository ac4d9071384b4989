"""OMPi host runtime (``ort``).

The translated host program is plain C with calls into this runtime:

* data-environment management per device (``ort_map``/``ort_unmap``/
  ``ort_update_*`` — OpenMP ``map`` semantics with reference counting,
  :mod:`repro.hostrt.mapping`);
* kernel offloading (argument marshalling + the cudadev host module's
  three-phase launch, :mod:`repro.hostrt.cudadev_host`);
* the offload devices, built once per root and leased to every ``Ort``
  (:mod:`repro.hostrt.registry`);
* host-side thread teams for ``parallel`` outside target regions
  (:mod:`repro.hostrt.team`);
* the host ``omp_*`` API (:mod:`repro.hostrt.api`), including
  ``omp_get_wtime`` on the virtual clock.

Devices are plugin modules behind a fixed interface
(:mod:`repro.hostrt.devices`), exactly as the paper describes: the host
part of a module is loaded on demand and fully initialises its device
lazily, at the first kernel offload.
"""

from repro.hostrt.ort import Ort

__all__ = ["Ort"]
